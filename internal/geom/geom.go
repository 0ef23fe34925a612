// Package geom provides the planar geometry primitives used throughout the
// floorplanner and the thermal simulator: points, rectangles, and dense
// float64 grids with the raster operations the leakage metrics need.
//
// All coordinates are in micrometres (um) unless stated otherwise; grids are
// unitless rasters whose physical pitch is tracked by the caller.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in um.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Euclid returns the L2 distance between p and q.
func (p Point) Euclid(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Rect is an axis-aligned rectangle identified by its lower-left corner and
// its non-negative extent.
type Rect struct {
	X, Y float64 // lower-left corner
	W, H float64 // extent
}

// Area returns the rectangle area in um^2.
func (r Rect) Area() float64 { return r.W * r.H }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// MaxX returns the right edge coordinate.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the top edge coordinate.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// Contains reports whether p lies inside r (closed on the lower-left edges,
// open on the upper-right edges, so adjacent rectangles tile without double
// ownership).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X < r.MaxX() && p.Y >= r.Y && p.Y < r.MaxY()
}

// Intersect returns the overlap of r and q and whether it is non-empty.
// Touching edges count as empty overlap.
func (r Rect) Intersect(q Rect) (Rect, bool) {
	x0 := math.Max(r.X, q.X)
	y0 := math.Max(r.Y, q.Y)
	x1 := math.Min(r.MaxX(), q.MaxX())
	y1 := math.Min(r.MaxY(), q.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Rect{}, false
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}, true
}

// OverlapArea returns the overlapping area of r and q (0 when disjoint).
func (r Rect) OverlapArea(q Rect) float64 {
	o, ok := r.Intersect(q)
	if !ok {
		return 0
	}
	return o.Area()
}

// Adjacent reports whether r and q share a boundary segment of positive
// length (abutting but not overlapping counts; corner touch does not).
func (r Rect) Adjacent(q Rect) bool {
	if _, overlaps := r.Intersect(q); overlaps {
		return true // overlapping modules are trivially "adjacent" for volume growth
	}
	// Vertical abutment: shared x edge, overlapping y span.
	ySpan := math.Min(r.MaxY(), q.MaxY()) - math.Max(r.Y, q.Y)
	if ySpan > 0 && (almostEqual(r.MaxX(), q.X) || almostEqual(q.MaxX(), r.X)) {
		return true
	}
	// Horizontal abutment: shared y edge, overlapping x span.
	xSpan := math.Min(r.MaxX(), q.MaxX()) - math.Max(r.X, q.X)
	if xSpan > 0 && (almostEqual(r.MaxY(), q.Y) || almostEqual(q.MaxY(), r.Y)) {
		return true
	}
	return false
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.2f,%.2f %gx%g)", r.X, r.Y, r.W, r.H)
}

const eps = 1e-9

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
