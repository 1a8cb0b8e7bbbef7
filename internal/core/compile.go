package core

import (
	"cmp"
	"slices"
	"sync"

	"sunstone/internal/analytic"
	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/faults"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
)

// Compiled is the per-(workload, arch, model) artifact bundle: everything a
// search needs that depends only on the problem, not on the run. Building it
// costs one ordering-trie enumeration, one cost-session plan (which holds the
// capacity table the dense expansion probes), the dimension table, the
// closed-form analytic seed, and an empty factor-ladder memo — work that
// today's serving-shaped callers (network scheduling, figure sweeps,
// -compare) would otherwise repeat on every Solve call for the same problem.
//
// A Compiled is immutable after Compile returns and safe for any number of
// concurrent searches: the ordering set, dimension table and seed row are
// read-only, and the cost session and ladder cache guard their memo tables
// internally. The session's evaluation memo is search-wide on a per-call
// compile and engine-wide when the Compiled comes from an Engine — warm calls
// start with the cache already populated.
type Compiled struct {
	w     *tensor.Workload
	a     *arch.Arch
	model cost.Model

	sess      *cost.Session    // fast-path plan tables, capacity table + shared eval memo
	orderings []order.Ordering // pruned ordering-trie survivors
	ostats    order.Stats      // trie effort, replayed into each run's counters
	dims      dimTable         // integer view of the workload's dimensions and orderings
	shape     rowShape         // layout of the factor rows the search runs on
	// seed is analytic.Seed's mapping as a row (its loop orders close
	// dims.orders), or seedErr why there is none. Every search that seeds
	// counts and evaluates it; none rebuilds it.
	seed       []int
	seedErr    error
	ladders    ladderCache // memoized factor ladders (tile/unroll/fill)
	expansions expandCache // memoized level expansions (warm-search replay)
}

// Compile validates the problem and builds its artifact bundle.
func Compile(w *tensor.Workload, a *arch.Arch, model cost.Model) (*Compiled, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Chaos hook: an injected compile fault fails (or poisons) the build
	// after input validation, exactly where a real mid-compile failure
	// would land.
	if err, _ := faults.Fire(faults.SiteCompile); err != nil {
		return nil, err
	}
	c := &Compiled{w: w, a: a, model: model}
	c.orderings, c.ostats = order.Enumerate(w)
	c.sess = model.NewSession(w, a)
	c.dims = buildDimTable(w, c.orderings)
	c.shape = rowShape{nd: len(w.Order), nl: len(a.Levels)}
	// The seed is a pure function of what is compiled here. A problem it
	// cannot seed still compiles: the searches record the error and run
	// unseeded.
	if seed, err := analytic.Seed(w, a, c.orderings); err != nil {
		c.seedErr = err
	} else {
		c.seed = c.rowOf(&c.dims.orders, seed)
	}
	c.ladders.m = make(map[ladderKey][]int)
	c.expansions.m = make(map[string]*expandEntry)
	return c, nil
}

// Workload returns the compiled problem's workload.
func (c *Compiled) Workload() *tensor.Workload { return c.w }

// Arch returns the compiled problem's architecture.
func (c *Compiled) Arch() *arch.Arch { return c.a }

// Session returns the compiled fast-path cost session. The session is
// goroutine-safe; callers needing scratch space take their own Evaluator.
func (c *Compiled) Session() *cost.Session { return c.sess }

// dimTable is the integer view of a workload the dense search runs on:
// dimension i is w.Order[i] everywhere below — in the per-worker factor
// matrices, the capacity tables and the lists here — so an expansion or a
// completion never looks a dimension up by name.
type dimTable struct {
	names     []tensor.Dim       // w.Order
	index     map[tensor.Dim]int // position in names; for building the compiled tables only
	bound     []int              // problem bound per dimension
	reduction []bool             // dimension indexes no output tensor
	// fill is the order the residual fill visits dimensions in: reduction
	// dimensions first (sorted by name), then the rest in canonical order.
	fill []int
	// all lists every dimension sorted by name: what an enumeration walks
	// when no ordering guidance restricts it.
	all dimList
	// orderings is index-aligned with Compiled.orderings.
	orderings []orderingPlan
	// orders is the compiled order table. Entry oi < len(orderings) is
	// ordering oi extended to every dimension (Ordering.Complete): the loop
	// order of its expansion units' candidates, which name it by that index.
	// The entries after them are the analytic seed's.
	orders orderTable
}

// dimList is a name-sorted list of dimensions in the three parallel forms the
// enumerations consume.
type dimList struct {
	idx       []int        // indices into dimTable.names
	names     []tensor.Dim // the same dimensions by name
	reduction []bool       // dimTable.reduction gathered over idx
}

// orderingPlan is what an expansion unit needs of one candidate ordering.
type orderingPlan struct {
	// grow lists the indexing dimensions of the tensors the ordering fully
	// reuses — the OP of the Tiling and Unrolling Principles. Empty when the
	// ordering reuses nothing: no guidance, every dimension allowed.
	grow   dimList
	inGrow []bool // membership in grow, per dimension
}

// walk is the dimension list the ordering's tiling tree and unrolling
// enumerate over: its grow dimensions, or every dimension without guidance.
func (op *orderingPlan) walk(dt *dimTable) *dimList {
	if len(op.grow.idx) == 0 {
		return &dt.all
	}
	return &op.grow
}

func buildDimTable(w *tensor.Workload, orderings []order.Ordering) dimTable {
	index := make(map[tensor.Dim]int, len(w.Order))
	dt := dimTable{names: w.Order, index: index, bound: make([]int, len(w.Order)), reduction: make([]bool, len(w.Order))}
	for i, d := range w.Order {
		index[d] = i
		dt.bound[i] = w.Dims[d]
	}
	for _, d := range w.ReductionDims() {
		dt.reduction[index[d]] = true
		dt.fill = append(dt.fill, index[d])
	}
	for i := range w.Order {
		if !dt.reduction[i] {
			dt.fill = append(dt.fill, i)
		}
	}
	list := func(member []bool) dimList {
		var l dimList
		for i, in := range member {
			if in {
				l.idx = append(l.idx, i)
			}
		}
		slices.SortFunc(l.idx, func(a, b int) int { return cmp.Compare(w.Order[a], w.Order[b]) })
		for _, i := range l.idx {
			l.names = append(l.names, w.Order[i])
			l.reduction = append(l.reduction, dt.reduction[i])
		}
		return l
	}
	every := make([]bool, len(w.Order))
	for i := range every {
		every[i] = true
	}
	dt.all = list(every)
	dt.orderings = make([]orderingPlan, len(orderings))
	for oi := range orderings {
		o := &orderings[oi]
		dt.orders = append(dt.orders, dt.indices(o.Complete(w)))
		op := orderingPlan{inGrow: make([]bool, len(w.Order))}
		for _, name := range o.FullyReused {
			if t := w.Tensor(name); t != nil {
				for _, d := range t.IndexingDims() {
					op.inGrow[index[d]] = true
				}
			}
		}
		op.grow = list(op.inGrow)
		dt.orderings[oi] = op
	}
	return dt
}

// indices resolves a loop order against the workload's dimensions. Names the
// workload does not declare have no index and are dropped: the cost model and
// the render ignore them too.
func (dt *dimTable) indices(order []tensor.Dim) []int32 {
	var idx []int32
	for _, d := range order {
		if i, ok := dt.index[d]; ok {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// ladderKey identifies one memoized factor ladder: the tiling tree pads
// sparse dimensions (minDivisors 4 by default), spatial unrolling does not
// (2), so both arguments key the table.
type ladderKey struct{ n, minDiv int }

// ladderCache memoizes factor.Ladder results across every enumeration of a
// compiled problem. The same quotas recur thousands of times per search —
// each beam state re-derives ladders for the same remaining extents — and
// across warm Engine calls they recur across searches too. Returned slices
// are shared and MUST NOT be mutated.
type ladderCache struct {
	mu sync.RWMutex
	m  map[ladderKey][]int
}

func (lc *ladderCache) ladder(n, minDiv int) []int {
	k := ladderKey{n, minDiv}
	lc.mu.RLock()
	l, ok := lc.m[k]
	lc.mu.RUnlock()
	if ok {
		return l
	}
	l = factor.Ladder(n, minDiv)
	lc.mu.Lock()
	lc.m[k] = l
	lc.mu.Unlock()
	return l
}

// expandEntry records one level-expansion's complete outcome: the produced
// candidates as factor rows in one flat arena (Compiled.shape.stride ints
// each, enumeration order) with each candidate's dedupe key beside it, the
// visit count charged against the step budget, the enumeration-reject tallies
// the expansion flushed into the candidate-flow counters, and whether any of
// its work units exhausted its visit-budget share. A warm search replays all
// of them, so its counters, space size, budget-hit flag and candidate set are
// indistinguishable from a cold run's. A stored entry is shared across
// searches and immutable: beam states alias its rows read-only, and a worker
// that extends one copies it into its workspace first.
type expandEntry struct {
	rows            []int
	keys            []cost.Key
	visited         int
	prunedTiling    int
	prunedUnrolling int
	truncated       bool
}

// size is what the entry is charged against maxExpandCacheBytes under key:
// its rows and keys, the key string, and a fixed allowance for the struct,
// the slice headers and the map slot — so an entry with no candidates (an
// infeasible base; in a top-down search every distinct budget share is its
// own key) is not free.
func (e *expandEntry) size(key string) int {
	const overhead = 128
	return len(key) + 8*len(e.rows) + 16*len(e.keys) + overhead
}

// maxExpandCacheBytes bounds what an expansion cache may retain per compiled
// problem. Expansion results are the bulkiest compiled artifact; typical
// searches produce a few hundred to a few thousand candidates, and 2^14
// candidates of a 7-dimension, 4-level problem (what the bound used to be
// stated as) are under 8 MiB of rows and keys, so the bound is generous for
// repeat-heavy serving while capping the worst case. Once full, existing
// entries keep serving hits but new ones are not stored.
const maxExpandCacheBytes = 16 << 20

// expandCache memoizes the per-(state, level, options) candidate expansions
// of a compiled problem. Enumeration — the tiling tree with its capacity
// probes, the unrolling search — dominates search time, and it is fully
// deterministic given the partial mapping, the level, and the enumeration
// options, so a warm Engine call replays the recorded outcome instead of
// re-walking the trees.
type expandCache struct {
	mu      sync.RWMutex
	m       map[string]*expandEntry
	bytes   int
	refused int // puts the byte bound turned away
}

// get looks key up without allocating (the scratch bytes are not retained).
func (c *expandCache) get(key []byte) *expandEntry {
	c.mu.RLock()
	e := c.m[string(key)]
	c.mu.RUnlock()
	return e
}

// put stores e unless the key is already present or the byte bound is
// reached. Concurrent searches may race to store the same key; the results
// are identical (the expansion is deterministic), so first-write-wins.
func (c *expandCache) put(key string, e *expandEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup {
		return
	}
	size := e.size(key)
	if c.bytes+size > maxExpandCacheBytes {
		c.refused++
		return
	}
	c.m[key] = e
	c.bytes += size
}
