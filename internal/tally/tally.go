// Package tally is the one state type of every counting mechanism: n
// reports and, per cell, how many of them supported that cell. The
// counting frequency oracles (GRR, the unary encodings, THE, local
// hashing, subset selection) and the heavy-hitter round accumulator
// differ only in which cells a report supports — their fold kernels.
// What they store, merge, copy, serialize, refuse and debias is this.
//
// Every cell of a sound tally lies in [0, N]: a report supports a cell
// at most once. The kernels keep that invariant by construction and
// Check refuses decoded tallies that break it, which is what lets Merge
// guard the cells by guarding N alone.
package tally

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/binenc"
)

// Tally is N reports and, per cell, the number of them that supported
// the cell.
type Tally struct {
	N     int64
	Cells []int64
}

// New returns an empty tally of the given width.
func New(width int) Tally { return Tally{Cells: make([]int64, width)} }

// Merge adds o into t: the counts add and the cells add element-wise,
// so the result is the tally of both report multisets. The widths must
// match, and a report count past math.MaxInt64 is refused rather than
// wrapped; either error leaves t unchanged. Since every cell lies in
// [0, N], a report count that fits bounds every cell sum too.
func (t *Tally) Merge(o Tally) error {
	if len(o.Cells) != len(t.Cells) {
		return fmt.Errorf("tally: width %d does not match %d", len(o.Cells), len(t.Cells))
	}
	if o.N > math.MaxInt64-t.N {
		return fmt.Errorf("tally: %d reports merged into %d overflow int64", o.N, t.N)
	}
	for i, c := range o.Cells {
		t.Cells[i] += c
	}
	t.N += o.N
	return nil
}

// Clone returns an independent copy of t.
func (t Tally) Clone() Tally { return Tally{N: t.N, Cells: slices.Clone(t.Cells)} }

// Reset empties t, keeping its width.
func (t *Tally) Reset() {
	clear(t.Cells)
	t.N = 0
}

// Write appends t's layout: N as a zig-zag varint, then the cells as
// binenc.Int64s (a uvarint length, one zig-zag varint per cell).
func (t Tally) Write(w *binenc.Writer) {
	w.Varint(t.N)
	w.Int64s(t.Cells)
}

// Read reads a tally written by Write. It checks the encoding only;
// whether reports could have produced the tally is Check's question.
func Read(r *binenc.Reader) Tally { return Tally{N: r.Varint(), Cells: r.Int64s()} }

// Check refuses a tally that no multiset of N reports could have
// produced: a width other than width, a negative N, a cell outside
// [0, N] and, where every report supports exactly perReport cells
// (perReport > 0), cells that do not sum to perReport·N. The sum is
// taken without wrapping.
func (t Tally) Check(width, perReport int) error {
	if t.N < 0 {
		return fmt.Errorf("tally: negative report count %d", t.N)
	}
	if len(t.Cells) != width {
		return fmt.Errorf("tally: %d cells, want %d", len(t.Cells), width)
	}
	var left int64 // perReport·N minus the cells seen so far
	if perReport > 0 {
		if t.N > math.MaxInt64/int64(perReport) {
			return fmt.Errorf("tally: %d reports of %d cells each overflow int64", t.N, perReport)
		}
		left = int64(perReport) * t.N
	}
	for i, c := range t.Cells {
		if c < 0 || c > t.N {
			return fmt.Errorf("tally: cell %d holds %d, outside [0,%d]", i, c, t.N)
		}
		if perReport > 0 {
			if left -= c; left < 0 {
				return fmt.Errorf("tally: cells sum past %d·%d", perReport, t.N)
			}
		}
	}
	if left != 0 {
		return fmt.Errorf("tally: cells sum short of %d·%d", perReport, t.N)
	}
	return nil
}

// Debias returns the unbiased count estimate of every cell, when a
// report supports its own value's cell with probability p and any
// other cell with probability q: (c − N·q) / (p − q).
func (t Tally) Debias(p, q float64) []float64 {
	out := make([]float64, len(t.Cells))
	den := p - q
	for v, c := range t.Cells {
		out[v] = (float64(c) - float64(t.N)*q) / den
	}
	return out
}
