// Package tile implements Sunstone's tiling-tree IR (Section IV-B of the
// paper).
//
// Given a loop ordering chosen for the level above (which decides the
// operand OP temporally reused across tiles), the Tiling Principle says only
// OP's *indexing* dimensions need to be enlarged: enlarging them shrinks the
// upper-level loop bounds that multiply the other tensors' access counts,
// while enlarging any other dimension cannot reduce accesses further.
//
// The tree's root is the smallest tile (every grow dimension at factor 1);
// each child enlarges exactly one grow dimension to the next rung of its
// divisor ladder. A node with at least one child that still fits in the
// level's memory is pruned (the child offers strictly more reuse); nodes
// that do not fit are discarded; the surviving *maximal fitting* tiles are
// the candidates. Nodes reached by enlarging different dimensions are
// incomparable and all kept.
package tile

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sunstone/internal/factor"
	"sunstone/internal/tensor"
)

// Candidate is one tile choice: per-dimension temporal factors at the level
// under optimization. Dimensions not present have factor 1.
type Candidate map[tensor.Dim]int

// Key returns a canonical string form for deduplication and test assertions.
func (c Candidate) Key() string {
	ds := make([]string, 0, len(c))
	for d, f := range c {
		if f > 1 {
			ds = append(ds, string(d)+"="+strconv.Itoa(f))
		}
	}
	sort.Strings(ds)
	if len(ds) == 0 {
		return "unit"
	}
	return strings.Join(ds, ",")
}

// DefaultMinLadderDivisors is the ladder padding the tiling tree uses when a
// Space leaves MinLadderDivisors zero: a dimension whose remaining quota has
// fewer than this many divisors gets the divisors of a nearby padded value
// mixed in (see factor.Ladder). The search's residual fill and top-down
// factor enumeration use the same value so that every temporal ladder of one
// search offers the same rungs.
const DefaultMinLadderDivisors = 4

// Space describes one tiling-tree enumeration.
type Space struct {
	// GrowDims are the dimensions the Tiling Principle allows to grow
	// (indexing dimensions of the reused operand). Empty means all
	// dimensions (no ordering guidance). Enumerate does not modify it.
	GrowDims []tensor.Dim
	// Quota is the remaining factor budget per dimension (problem bound
	// divided by the extent already fixed at lower levels).
	Quota map[tensor.Dim]int
	// Fits reports whether a tile with the given factors (interpreted on
	// top of the already-fixed lower-level extents) fits the level's
	// buffers. It must be a pure predicate: each distinct tile is asked
	// about once, however many parents reach it.
	Fits func(Candidate) bool
	// MinLadderDivisors pads sparse dimensions so the ladder has choices;
	// 0 means DefaultMinLadderDivisors.
	MinLadderDivisors int
	// MaxNodes bounds the tree nodes expanded (0 = default 100000); when
	// exhausted, the maximal tiles found so far are returned.
	MaxNodes int
	// MaxCandidates truncates the result to the largest tiles (by factor
	// product — more intra-tile reuse) when positive.
	MaxCandidates int
}

// Stats reports the enumeration effort.
type Stats struct {
	NodesVisited int // tree nodes expanded (fitting or not)
	Survivors    int // maximal fitting tiles returned
}

// Enumerate walks the tiling tree and returns the maximal fitting tiles.
// If even the unit tile does not fit, it returns nil.
//
// It is the map-keyed front of Walker.Walk: the walk runs over factor
// vectors, a Candidate map is materialized per surviving tile and per
// capacity probe (Fits takes one).
func Enumerate(s Space) ([]Candidate, Stats) {
	grow := append([]tensor.Dim(nil), s.GrowDims...)
	if len(grow) == 0 {
		for d := range s.Quota {
			grow = append(grow, d)
		}
	}
	slices.Sort(grow)
	quota := make([]int, len(grow))
	for i, d := range grow {
		quota[i] = s.Quota[d]
	}
	candidate := func(fs []int) Candidate {
		c := make(Candidate, len(grow))
		for i, d := range grow {
			if fs[i] > 1 {
				c[d] = fs[i]
			}
		}
		return c
	}
	var wk Walker
	rows, stats := wk.Walk(Vec{
		Dims:              grow,
		Quota:             quota,
		Fits:              func(fs []int) bool { return s.Fits(candidate(fs)) },
		MinLadderDivisors: s.MinLadderDivisors,
		MaxNodes:          s.MaxNodes,
		MaxCandidates:     s.MaxCandidates,
	})
	if stats.Survivors == 0 {
		return nil, stats
	}
	out := make([]Candidate, stats.Survivors)
	for i := range out {
		out[i] = candidate(rows[i*len(grow) : (i+1)*len(grow)])
	}
	return out, stats
}

// Vec is a tiling-tree enumeration over factor vectors — the form the search
// drives directly, with no map per call. Every slice is parallel to Dims and
// only read.
type Vec struct {
	// Dims are the grow dimensions, sorted by name: children are expanded
	// in this order, which fixes the visit order under MaxNodes.
	Dims []tensor.Dim
	// Quota is the remaining factor budget per grow dimension (values
	// below 1 count as 1).
	Quota []int
	// Fits reports whether the tile with factor vector fs (1 = not grown)
	// fits; it is asked once per distinct tile. fs is the walker's own
	// scratch: read it, do not keep it.
	Fits func(fs []int) bool
	// Ladder, when non-nil, supplies divisor ladders instead of
	// factor.Ladder — typically a compiled problem's memoized table. It
	// must return exactly what factor.Ladder(n, minDivisors) would, and the
	// walk never writes to the returned slice.
	Ladder func(n, minDivisors int) []int
	// MinLadderDivisors, MaxNodes and MaxCandidates are Space's.
	MinLadderDivisors int
	MaxNodes          int
	MaxCandidates     int
}

// Walker owns the scratch of tiling-tree walks so that a caller running many
// enumerations (one per beam state, ordering and unrolling) allocates only
// while the buffers grow to the largest tree seen. The zero value is ready;
// a Walker is not safe for concurrent use.
type Walker struct {
	fits     func(fs []int) bool
	maxNodes int
	visited  int

	ladders [][]int
	fs      []int    // current factor per grow dimension
	rung    []int32  // current ladder index per grow dimension (-1 = below the ladder)
	stride  []uint64 // mixed-radix weight of each rung in the packed node key

	// Visited set: open addressing over the rung vectors of every node
	// expanded, hashed by their packed mixed-radix key. The key wraps, so a
	// key space beyond 64 bits costs collisions, never aliasing: a hit is
	// confirmed against the stored vector.
	slots []int32  // 0 = empty, else 1 + node index into seen/keys
	seen  []int32  // node i's rung vector at [i*n, (i+1)*n)
	keys  []uint64 // node i's packed key

	maximal []int // factor vectors of the maximal fitting tiles, in discovery order
	names   KeyArena
	prods   []int64
	order   []int
	rows    []int
}

// Walk enumerates the maximal fitting tiles of v. The result holds one factor
// vector per survivor (Stats.Survivors of them, len(v.Dims) entries each) in
// the order Enumerate returns its Candidates; it aliases the walker's scratch
// and is valid until the next Walk. Survivors is zero exactly when even the
// unit tile does not fit.
func (wk *Walker) Walk(v Vec) ([]int, Stats) {
	n := len(v.Dims)
	minDiv := v.MinLadderDivisors
	if minDiv == 0 {
		minDiv = DefaultMinLadderDivisors
	}
	ladder := v.Ladder
	if ladder == nil {
		ladder = factor.Ladder
	}
	wk.ladders = wk.ladders[:0]
	wk.fs, wk.rung, wk.stride = wk.fs[:0], wk.rung[:0], wk.stride[:0]
	radix := uint64(1)
	for i := 0; i < n; i++ {
		l := ladder(max(v.Quota[i], 1), minDiv)
		wk.ladders = append(wk.ladders, l)
		wk.fs = append(wk.fs, 1)
		wk.rung = append(wk.rung, -1)
		wk.stride = append(wk.stride, radix)
		radix *= uint64(len(l)) + 1
	}
	if !v.Fits(wk.fs) {
		return nil, Stats{NodesVisited: 1}
	}

	wk.fits = v.Fits
	wk.maxNodes = v.MaxNodes
	if wk.maxNodes <= 0 {
		wk.maxNodes = 100_000
	}
	wk.visited = 0
	// Start every walk on a small table, whatever the last one grew to:
	// clearing is then proportional to this walk's size, and growing back
	// reuses the storage.
	if cap(wk.slots) < 64 {
		wk.slots = make([]int32, 64)
	}
	wk.slots = wk.slots[:64]
	clear(wk.slots)
	wk.seen, wk.keys = wk.seen[:0], wk.keys[:0]
	wk.maximal = wk.maximal[:0]
	wk.walk(0)
	wk.fits = nil

	// Keys and products once per maximal tile; the two sorts below then
	// compare integers and byte ranges.
	m := 1 // over no dimensions the fitting unit tile is the one survivor
	if n > 0 {
		m = len(wk.maximal) / n
	}
	wk.names.Reset(v.Dims)
	wk.prods, wk.order = wk.prods[:0], wk.order[:0]
	for i := 0; i < m; i++ {
		row := wk.maximal[i*n : (i+1)*n]
		wk.names.Add(row)
		p := int64(1)
		for _, f := range row {
			p *= int64(f)
		}
		wk.prods = append(wk.prods, p)
		wk.order = append(wk.order, i)
	}
	if v.MaxCandidates > 0 && m > v.MaxCandidates {
		slices.SortFunc(wk.order, func(a, b int) int {
			if c := cmp.Compare(wk.prods[b], wk.prods[a]); c != 0 {
				return c // larger product first
			}
			return wk.names.Compare(a, b)
		})
		wk.order = wk.order[:v.MaxCandidates]
	}
	slices.SortFunc(wk.order, wk.names.Compare)
	wk.rows = wk.rows[:0]
	for _, i := range wk.order {
		wk.rows = append(wk.rows, wk.maximal[i*n:(i+1)*n]...)
	}
	return wk.rows, Stats{NodesVisited: wk.visited, Survivors: len(wk.order)}
}

// walk expands the not yet expanded node at the walker's current factor
// vector (packed key `key`): nodes are factor vectors mutated in place down
// the DFS and restored on the way up, so the walk allocates nothing per node.
func (wk *Walker) walk(key uint64) {
	wk.markExpanded(key)
	wk.visited++
	if wk.visited > wk.maxNodes {
		wk.maximal = append(wk.maximal, wk.fs...) // budget exhausted: keep frontier
		return
	}
	anyChildFits := false
	for i, l := range wk.ladders {
		if wk.visited > wk.maxNodes {
			break
		}
		// The smallest ladder entry above the current factor.
		next := int(wk.rung[i]) + 1
		for next < len(l) && l[next] <= wk.fs[i] {
			next++
		}
		if next == len(l) {
			continue
		}
		prevF, prevR := wk.fs[i], wk.rung[i]
		wk.fs[i], wk.rung[i] = l[next], int32(next)
		child := key + uint64(int32(next)-prevR)*wk.stride[i]
		// A child reached before through another parent was expanded
		// because it fit: no second probe, no second expansion.
		if _, expanded := wk.find(child); expanded {
			anyChildFits = true
		} else if wk.fits(wk.fs) {
			anyChildFits = true
			wk.walk(child)
		}
		wk.fs[i], wk.rung[i] = prevF, prevR
	}
	if !anyChildFits {
		wk.maximal = append(wk.maximal, wk.fs...)
	}
}

// find returns the slot of the node at the walker's current rung vector, or,
// when it was not expanded yet, the empty slot it belongs in.
func (wk *Walker) find(key uint64) (slot uint64, expanded bool) {
	n := len(wk.rung)
	for p := wk.probe(key); ; p = (p + 1) & uint64(len(wk.slots)-1) {
		s := int(wk.slots[p])
		if s == 0 {
			return p, false
		}
		if wk.keys[s-1] == key && slices.Equal(wk.seen[(s-1)*n:s*n], wk.rung) {
			return p, true
		}
	}
}

// markExpanded records the node at the walker's current rung vector, which
// must not be in the set yet.
func (wk *Walker) markExpanded(key uint64) {
	if 2*(len(wk.keys)+1) > len(wk.slots) {
		if n := 2 * len(wk.slots); n <= cap(wk.slots) {
			wk.slots = wk.slots[:n]
			clear(wk.slots)
		} else {
			wk.slots = make([]int32, n)
		}
		for i, k := range wk.keys {
			p := wk.probe(k)
			for wk.slots[p] != 0 {
				p = (p + 1) & uint64(len(wk.slots)-1)
			}
			wk.slots[p] = int32(i) + 1
		}
	}
	p, _ := wk.find(key)
	wk.slots[p] = int32(len(wk.keys)) + 1
	wk.keys = append(wk.keys, key)
	wk.seen = append(wk.seen, wk.rung...)
}

// probe is the first slot of key's probe sequence. Sibling nodes have
// consecutive keys; the multiply spreads them over the table.
func (wk *Walker) probe(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 20 & uint64(len(wk.slots)-1)
}

// KeyArena renders Candidate.Key for factor vectors into one byte buffer, so
// that ordering the survivors of an enumeration by key allocates nothing per
// survivor. Package unroll shares it: its candidates have the same key.
type KeyArena struct {
	dims []tensor.Dim
	pos  []int // positions of the dimensions in the order Key lists them
	buf  []byte
	end  []int // key i is buf[end[i-1]:end[i]]
}

// Reset empties the arena for vectors over dims. Key sorts its "dim=factor"
// entries as strings; because dimension names are distinct, that order never
// depends on the factors — it is the order of the names each followed by '='.
func (ka *KeyArena) Reset(dims []tensor.Dim) {
	ka.dims, ka.buf, ka.end, ka.pos = dims, ka.buf[:0], ka.end[:0], ka.pos[:0]
	for i := range dims {
		ka.pos = append(ka.pos, i)
	}
	slices.SortFunc(ka.pos, func(a, b int) int { return compareKeyPrefix(string(dims[a]), string(dims[b])) })
}

// compareKeyPrefix compares a+"=" with b+"=" without building either.
func compareKeyPrefix(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return cmp.Compare('=', b[n])
	}
	return cmp.Compare(a[n], '=')
}

// Add appends the key of factor vector fs (parallel to the dims of Reset).
func (ka *KeyArena) Add(fs []int) {
	start := len(ka.buf)
	for _, i := range ka.pos {
		if fs[i] > 1 {
			if len(ka.buf) > start {
				ka.buf = append(ka.buf, ',')
			}
			ka.buf = append(ka.buf, ka.dims[i]...)
			ka.buf = append(ka.buf, '=')
			ka.buf = strconv.AppendInt(ka.buf, int64(fs[i]), 10)
		}
	}
	if len(ka.buf) == start {
		ka.buf = append(ka.buf, "unit"...)
	}
	ka.end = append(ka.end, len(ka.buf))
}

// Compare orders the a-th and b-th added keys as their strings would.
func (ka *KeyArena) Compare(a, b int) int { return bytes.Compare(ka.key(a), ka.key(b)) }

func (ka *KeyArena) key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = ka.end[i-1]
	}
	return ka.buf[lo:ka.end[i]]
}
