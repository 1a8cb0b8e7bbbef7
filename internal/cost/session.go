// The evaluator. A Session precomputes everything about a (workload, arch)
// pair that does not depend on the mapping — tensor axis structure, keeper
// chains, per-flow buffer energy coefficients, the component and access-slot
// tables behind Report's Breakdown/Accesses maps — and an Evaluator owns
// reusable scratch so scoring a mapping allocates nothing in steady state.
// Evaluator.compute is the only implementation of the model's arithmetic:
// EvaluateEDP returns its scalars, Report renders its accumulators as maps,
// Flows lists the per-flow word counts it passed to account. A mapping reaches
// the scratch through one of two fronts — snapshot reads a mapping.Mapping's
// maps, snapshotRows copies the factor rows the search runs on — and one
// canonicalization (canon) behind both, so there is one compute and one key
// whichever form the caller holds.
//
// On top of the scalar path sits a search-wide memoization cache keyed by a
// canonical 128-bit fingerprint of the mapping (per level: the effective
// order of bound>1 temporal loops, every temporal bound, every spatial
// factor). Hill-climb polish and the beam revisit the same completed
// mappings heavily; a cache hit returns the memoized scalars without
// touching the model.
package cost

import (
	"fmt"
	"sort"
	"sync"

	"sunstone/internal/arch"
	"sunstone/internal/faults"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/tensor"
)

// Key is the canonical 128-bit fingerprint of a mapping's (ordering, tile,
// unroll) content for a fixed (workload, arch) Session. Two mappings with
// equal Keys are scored identically by the cost model (the fingerprint
// canonicalizes away differences the model cannot observe, such as the
// relative order of bound-1 loops), so Keys double as dedup handles for the
// search's candidate sets.
type Key struct{ Hi, Lo uint64 }

// cacheEntry memoizes one evaluation's scalar results.
type cacheEntry struct {
	edp, energy, cycles float64
	valid               bool
}

const cacheShards = 64

type cacheShard struct {
	mu sync.RWMutex
	m  map[Key]cacheEntry
}

// termPlan is one summand of an axis index expression, with the dimension
// resolved to its Session index.
type termPlan struct {
	dim    int
	stride int
}

type axisPlan struct {
	terms []termPlan
}

// flowPlan is one tensor's traffic between adjacent keeper levels (or the
// MAC datapath, child == -1), with component/slot indices and buffer energy
// coefficients resolved at build time.
type flowPlan struct {
	child, parent int
	pReadPJ       float64
	pWritePJ      float64
	cReadPJ       float64
	cWritePJ      float64
	pComp, cComp  int
	pSlot, cSlot  int
}

// tensorPlan is the per-tensor precomputation: axis structure, indexing and
// window-only dimension sets, and the keeper-pair flows.
type tensorPlan struct {
	t        *tensor.Tensor
	output   bool
	axes     []axisPlan
	indexing []bool // by dim index: does the dim appear in any axis?
	winOnly  []bool // by dim index: windowOnly(t, d)
	flows    []flowPlan
}

// slotPlan is one (level, tensor) access counter: the level and the
// bandwidths of the buffer holding the tensor there.
type slotPlan struct {
	lvl             int
	readBW, writeBW float64
}

// capBuffer is one bounded buffer's row of the capacity table (see
// LevelFits): its size and, for every tensor it holds, the word width and the
// tensor's axis structure flattened to one term list.
type capBuffer struct {
	capBits int64
	tensors []capTensor
}

type capTensor struct {
	bits  int64
	terms []capTerm // every axis's terms, axis after axis
}

type capTerm struct {
	stride  int
	dim     int  // Session dimension index
	axisEnd bool // last term of its axis
}

// Session holds the per-(workload, arch) precomputation shared by all
// Evaluators of one search, plus the search-wide memoization cache. A
// Session is immutable after NewSession and safe for concurrent use.
type Session struct {
	model Model
	w     *tensor.Workload
	a     *arch.Arch

	dims    []tensor.Dim // w.Order (canonical)
	dimIdx  map[tensor.Dim]int
	bounds  []int // problem bound per dim
	nLevels int

	tensors []tensorPlan
	caps    [][]capBuffer // per level below the top, its bounded buffers
	redDims []int         // reduction dimension indices
	noSR    []bool        // per level: !AllowSpatialReduction
	fanout  []int

	macPJ     float64
	levels    []levelCoef
	compMAC   int
	compNoC   int
	compSR    int
	compNames []string // Report.Breakdown keys, by component index
	sumOrder  []int    // component indices in sorted-name order (EnergyPJ sum)
	slots     []slotPlan
	slotNames []string // Report.Accesses keys ("level/buffer/tensor"), by slot index

	// Admissible lower-bound tables (see LowerBound), built once by
	// buildLowerBound from compulsory traffic and peak-throughput
	// occupancy. They depend only on the problem, never on a mapping.
	lbMacsU      float64 // unpadded MAC count (Π problem bounds)
	lbEnergyPJ   float64 // energy floor: MACs + compulsory buffer traffic
	lbXferCycles float64 // cycle floor from bandwidth on compulsory traffic
	lbMaxSpatial float64 // Π fanouts — the most parallelism any mapping has

	shards       [cacheShards]cacheShard
	hits, misses obs.Counter
}

// levelCoef caches the per-level NoC coefficients.
type levelCoef struct {
	noCPerWordPJ    float64
	noCTagCheckPJ   float64
	spatialReducePJ float64
}

// NewSession precomputes the model's tables for mapping w onto a. The
// workload and arch must be structurally valid (every tensor kept at the
// top level, level names unique — what arch.Validate guarantees); they are
// treated as immutable for the Session's lifetime.
func (mo Model) NewSession(w *tensor.Workload, a *arch.Arch) *Session {
	s := &Session{
		model:   mo,
		w:       w,
		a:       a,
		dims:    w.Order,
		dimIdx:  make(map[tensor.Dim]int, len(w.Order)),
		bounds:  make([]int, len(w.Order)),
		nLevels: len(a.Levels),
		macPJ:   a.MACPJ,
	}
	for i, d := range s.dims {
		s.dimIdx[d] = i
		s.bounds[i] = w.Dims[d]
	}
	for _, d := range w.ReductionDims() {
		s.redDims = append(s.redDims, s.dimIdx[d])
	}
	s.noSR = make([]bool, s.nLevels)
	s.fanout = make([]int, s.nLevels)
	s.levels = make([]levelCoef, s.nLevels)
	for l := 0; l < s.nLevels; l++ {
		al := &a.Levels[l]
		s.noSR[l] = !al.AllowSpatialReduction
		s.fanout[l] = al.Fanout
		s.levels[l] = levelCoef{
			noCPerWordPJ:    al.NoCPerWordPJ,
			noCTagCheckPJ:   al.NoCTagCheckPJ,
			spatialReducePJ: al.SpatialReducePJ,
		}
	}

	// Components are keyed by buffer name alone: same-named buffers at
	// different levels share one Breakdown entry.
	compIdx := map[string]int{}
	comp := func(name string) int {
		if i, ok := compIdx[name]; ok {
			return i
		}
		i := len(s.compNames)
		compIdx[name] = i
		s.compNames = append(s.compNames, name)
		return i
	}
	s.compMAC = comp("MAC")
	s.compNoC = comp("NoC")
	s.compSR = comp("SpatialReduce")

	// The capacity table: every bounded buffer below the top level, with the
	// tensors it holds (Holds implies Keeps at that level, so
	// mapping.Validate's heldHere conjunction reduces to Holds).
	s.caps = make([][]capBuffer, max(s.nLevels-1, 0))
	for lvl := range s.caps {
		al := &a.Levels[lvl]
		for bi := range al.Buffers {
			buf := &al.Buffers[bi]
			if buf.Bytes == 0 {
				continue
			}
			cb := capBuffer{capBits: buf.Bytes * 8}
			for _, t := range w.Tensors {
				if !buf.Holds(t.Name) {
					continue
				}
				ct := capTensor{bits: int64(a.Bits(t.Name))}
				for _, ax := range t.Axes {
					for k, term := range ax {
						ct.terms = append(ct.terms, capTerm{stride: term.Stride, dim: s.dimIdx[term.D], axisEnd: k == len(ax)-1})
					}
				}
				cb.tensors = append(cb.tensors, ct)
			}
			s.caps[lvl] = append(s.caps[lvl], cb)
		}
	}

	// Per-tensor plans, in w.Tensors order (the Breakdown accumulation
	// order).
	nd := len(s.dims)
	s.tensors = make([]tensorPlan, 0, len(w.Tensors))
	for _, t := range w.Tensors {
		tp := tensorPlan{
			t:        t,
			output:   t.Output,
			axes:     make([]axisPlan, 0, len(t.Axes)),
			indexing: make([]bool, nd),
			winOnly:  make([]bool, nd),
		}
		for i, d := range s.dims {
			tp.indexing[i] = t.Indexing(d)
			tp.winOnly[i] = windowOnly(t, d)
		}
		for _, ax := range t.Axes {
			ap := axisPlan{terms: make([]termPlan, len(ax))}
			for i, term := range ax {
				ap.terms[i] = termPlan{dim: s.dimIdx[term.D], stride: term.Stride}
			}
			tp.axes = append(tp.axes, ap)
		}
		keepers := make([]int, 0, s.nLevels)
		for l := 0; l < s.nLevels; l++ {
			if a.Levels[l].Keeps(t.Name) {
				keepers = append(keepers, l)
			}
		}
		// buildLowerBound walks these flow plans, so the lower bound inherits
		// the residency truncation and stays admissible for the resident
		// problem.
		keepers = mo.residentKeepers(t.Name, keepers)
		// One flow per keeper: the datapath below the innermost one, then
		// each adjacent pair. Keeper i is the parent of flow i and the child
		// of flow i+1, and owns one access slot.
		tp.flows = make([]flowPlan, 0, len(keepers))
		for i, l := range keepers {
			buf := a.Levels[l].BufferFor(t.Name)
			fl := flowPlan{
				child: -1, parent: l,
				pReadPJ: buf.ReadPJ, pWritePJ: buf.WritePJ,
				pComp: comp(buf.Name), pSlot: len(s.slots),
				cComp: -1, cSlot: -1,
			}
			if i > 0 {
				prev := &tp.flows[i-1]
				fl.child = prev.parent
				fl.cReadPJ, fl.cWritePJ = prev.pReadPJ, prev.pWritePJ
				fl.cComp, fl.cSlot = prev.pComp, prev.pSlot
			}
			tp.flows = append(tp.flows, fl)
			s.slots = append(s.slots, slotPlan{lvl: l, readBW: buf.ReadBW, writeBW: buf.WriteBW})
			s.slotNames = append(s.slotNames, fmt.Sprintf("%s/%s/%s", a.Levels[l].Name, buf.Name, t.Name))
		}
		s.tensors = append(s.tensors, tp)
	}

	// EnergyPJ sums the components in sorted-name order (float addition is
	// not associative, so the order is part of the result). A component no
	// flow touched contributes +0.0, which cannot change the bits of a sum
	// of non-negative terms.
	sorted := append([]string(nil), s.compNames...)
	sort.Strings(sorted)
	s.sumOrder = make([]int, len(sorted))
	for i, name := range sorted {
		s.sumOrder[i] = compIdx[name]
	}

	s.buildLowerBound()
	return s
}

// lbSlack shaves a relative epsilon off the lower-bound tables so that
// floating-point summation-order differences between the bound and the real
// evaluation can never push the bound above a true cost. The admissibility
// argument is exact in real arithmetic; the slack only absorbs ulp-level
// rounding and is far below anything the search could act on.
const lbSlack = 1 - 1e-9

// buildLowerBound precomputes the admissible cost floor consulted by
// LowerBound. Every term is a provable under-approximation of what compute()
// charges for ANY valid mapping of the problem:
//
//   - MAC energy: compute() charges PaddedMACs × macPJ; the unpadded product
//     of problem bounds (macsU) never exceeds PaddedMACs.
//   - Datapath flows: compute() moves macs/mergeWidth words at the innermost
//     keeper. mergeWidth is a product of spatial factors, capped by the
//     fanout product of the levels at or below the keeper — and, for a
//     tensor whose non-indexing dimensions are all reduction dimensions
//     (the usual single-output case), only AllowSpatialReduction levels can
//     contribute, because noSR levels force reduction spatial factors to 1.
//   - Keeper-pair flows: every distinct element of a tensor must cross each
//     keeper pair at least once (sliding-window reuse removes only repeat
//     fetches), so child-side traffic is at least the unpadded footprint
//     fpFull, and parent-side reads at least fpFull divided by the maximal
//     multicast width between the two levels. Output partial-sum round
//     trips are bounded below by zero.
//   - NoC and spatial-reduce energy are non-negative extras: floor zero.
//   - Cycles: compute cycles are at least macsU / (total spatial), and each
//     slot needs its compulsory traffic through its bandwidth at the maximal
//     instance count (fanout product strictly above the level).
func (s *Session) buildLowerBound() {
	top := s.nLevels - 1
	if top < 0 {
		return
	}

	macsU := 1.0
	for _, b := range s.bounds {
		macsU *= float64(b)
	}

	isRed := make([]bool, len(s.dims))
	for _, ri := range s.redDims {
		isRed[ri] = true
	}

	// fanPrefix[l]: max spatial product over levels [0..l]; fanPrefixSR[l]:
	// the same counting only AllowSpatialReduction levels.
	fanPrefix := make([]float64, s.nLevels)
	fanPrefixSR := make([]float64, s.nLevels)
	accP, accSR := 1.0, 1.0
	for l := 0; l < s.nLevels; l++ {
		accP *= float64(s.fanout[l])
		if !s.noSR[l] {
			accSR *= float64(s.fanout[l])
		}
		fanPrefix[l] = accP
		fanPrefixSR[l] = accSR
	}
	s.lbMaxSpatial = fanPrefix[top]

	// instMax[l]: maximal instance count of a level-l slot — the fanout
	// product strictly above l (cycles()'s e.inst with every fanout used).
	instMax := make([]float64, s.nLevels)
	acc := 1.0
	for l := top; l >= 0; l-- {
		instMax[l] = acc
		acc *= float64(s.fanout[l])
	}

	readsLB := make([]float64, len(s.slots))
	writesLB := make([]float64, len(s.slots))
	energy := macsU * s.macPJ

	for ti := range s.tensors {
		tp := &s.tensors[ti]

		// fpFull: footprint over the unpadded problem bounds — the distinct
		// elements every flow of this tensor must move at least once.
		fp := 1.0
		for ai := range tp.axes {
			ex := 1
			for _, t := range tp.axes[ai].terms {
				ex += t.stride * (s.bounds[t.dim] - 1)
			}
			fp *= float64(ex)
		}

		// srCapped: every non-indexing dim is a reduction dim, so the
		// tensor's merge width can only grow at SR-allowing levels.
		srCapped := true
		for i := range s.dims {
			if !tp.indexing[i] && !isRed[i] {
				srCapped = false
				break
			}
		}

		for fi := range tp.flows {
			fl := &tp.flows[fi]
			if fl.child < 0 {
				// Datapath flow at the innermost keeper.
				mergeCap := fanPrefix[fl.parent]
				if srCapped {
					mergeCap = fanPrefixSR[fl.parent]
				}
				v := macsU / mergeCap
				if tp.output {
					// psum re-reads equal the writes in account().
					readsLB[fl.pSlot] += v
					writesLB[fl.pSlot] += v
					energy += v * (fl.pReadPJ + fl.pWritePJ)
				} else {
					readsLB[fl.pSlot] += v
					energy += v * fl.pReadPJ
				}
				continue
			}
			// Keeper-pair flow (child, parent): mc is the maximal multicast
			// (input) width between the levels.
			mc := fanPrefix[fl.parent] / fanPrefix[fl.child]
			if tp.output {
				// Writeback: ≥ fpFull words written to the parent, each
				// drained through the child at least once.
				writesLB[fl.pSlot] += fp
				readsLB[fl.cSlot] += fp
				energy += fp * (fl.pWritePJ + fl.cReadPJ)
			} else {
				// Fill: ≥ fpFull words into the child, sourced by at least
				// fpFull/mc parent reads.
				readsLB[fl.pSlot] += fp / mc
				writesLB[fl.cSlot] += fp
				energy += fp/mc*fl.pReadPJ + fp*fl.cWritePJ
			}
		}
	}

	worst := 0.0
	for si := range s.slots {
		sp := &s.slots[si]
		var t float64
		if sp.readBW > 0 {
			t += readsLB[si] / (sp.readBW * instMax[sp.lvl])
		}
		if sp.writeBW > 0 {
			t += writesLB[si] / (sp.writeBW * instMax[sp.lvl])
		}
		if t > worst {
			worst = t
		}
	}

	s.lbMacsU = macsU * lbSlack
	s.lbEnergyPJ = energy * lbSlack
	s.lbXferCycles = worst * lbSlack
}

// LowerBound returns an admissible floor on (EnergyPJ, Cycles) for any valid
// completion of a mapping whose total spatial parallelism cannot exceed
// maxSpatial: no valid mapping of the Session's problem — however it tiles,
// orders, or unrolls — evaluates below these numbers in either component.
// Pass maxSpatial <= 0 (or anything above the fanout product) for the
// problem-wide bound.
func (s *Session) LowerBound(maxSpatial float64) (energyPJ, cycles float64) {
	if maxSpatial <= 0 || maxSpatial > s.lbMaxSpatial {
		maxSpatial = s.lbMaxSpatial
	}
	cycles = s.lbMacsU / maxSpatial
	if s.lbXferCycles > cycles {
		cycles = s.lbXferCycles
	}
	return s.lbEnergyPJ, cycles
}

// LevelFits reports whether tiles with per-dimension extents ext (indexed like
// the workload's canonical dimension order) fit every bounded buffer of level
// lvl, which must be below the top: per buffer, the footprints of the tensors
// it holds (Π over axes of 1 + Σ stride·(extent − 1)), in bits, against its
// capacity. This is the one dense form of the paper's capacity rule: the
// evaluator's legality check and every probe of the search reduce to it
// (mapping.Validate is the independent map-based statement of the same rule).
func (s *Session) LevelFits(lvl int, ext []int) bool {
	bufs := s.caps[lvl]
	for bi := range bufs {
		cb := &bufs[bi]
		var usedBits int64
		for ti := range cb.tensors {
			ct := &cb.tensors[ti]
			fp, e := 1, 1
			for _, term := range ct.terms {
				n := ext[term.dim]
				if n <= 0 {
					n = 1
				}
				e += term.stride * (n - 1)
				if term.axisEnd {
					fp *= e
					e = 1
				}
			}
			usedBits += int64(fp) * ct.bits
		}
		if usedBits > cb.capBits {
			return false
		}
	}
	return true
}

// CacheStats returns the memoization cache's hit and miss counts so far.
func (s *Session) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// CacheCounters exposes the live cache hit/miss counters so a search can
// adopt them into its telemetry registry (obs.Registry.Register) and stream
// the hit rate mid-run instead of waiting for a final CacheStats snapshot.
func (s *Session) CacheCounters() (hits, misses *obs.Counter) {
	return &s.hits, &s.misses
}

// lookup consults the memo cache, charging the outcome to the Session's
// lifetime counters and — when the Evaluator has been wired with
// CountCacheInto — to the per-run counters as well, so a search on a shared
// (Engine-cached) Session still reports its own hit rate.
func (e *Evaluator) lookup(k Key) (cacheEntry, bool) {
	s := e.s
	sh := &s.shards[k.Hi%cacheShards]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		s.hits.Add(1)
		if e.hits != nil {
			e.hits.Add(1)
		}
	} else {
		s.misses.Add(1)
		if e.misses != nil {
			e.misses.Add(1)
		}
	}
	return v, ok
}

func (s *Session) store(k Key, e cacheEntry) {
	sh := &s.shards[k.Hi%cacheShards]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[Key]cacheEntry)
	}
	sh.m[k] = e
	sh.mu.Unlock()
}

// Evaluator owns the mutable scratch for scoring mappings against one
// Session. It is NOT safe for concurrent use; create one per worker
// goroutine (Session.NewEvaluator is cheap and the Session itself is
// shared).
type Evaluator struct {
	s *Session

	// Per-run cache attribution (see CountCacheInto); nil = Session-only.
	hits, misses *obs.Counter

	// Snapshot of the mapping under evaluation: tb, sf and order are written
	// by the front (snapshot or snapshotRows), the rest derived by canon.
	tb     []int     // nLevels x nDims temporal bounds
	sf     []int     // nLevels x nDims spatial factors
	order  [][]int32 // per level, the declared loop order as dimension indices
	ordBuf []int32   // backing of order for the Mapping front
	eo     []int32   // nLevels x nDims effective order of bound>1 temporal loops
	eoLen  []int
	spIdx  []int32 // per-level spatial entries with s>1: dim indices...
	spS    []int64 // ...and factors
	spOff  []int   // level l's entries are spIdx/spS[spOff[l]:spOff[l+1]]
	seen   []bool

	// Evaluation scratch.
	cum     []int // nLevels x nDims cumulative extents (Extents at each level)
	ext     []int // per-flow working extents
	loopD   []int32
	loopB   []int
	macs    int64
	bd      []float64 // energy per component: Report.Breakdown by index
	touched []bool    // components some flow added to, even a zero amount
	acc     []Access  // words per slot: Report.Accesses by index
	inst    []float64

	// recordFlows makes account append each flow's word counts to flows
	// (Model.Flows); off on every scoring path.
	recordFlows bool
	flows       []Flow
}

// NewEvaluator returns a fresh Evaluator with all scratch preallocated.
func (s *Session) NewEvaluator() *Evaluator {
	nd, nl := len(s.dims), s.nLevels
	return &Evaluator{
		s:       s,
		tb:      make([]int, nl*nd),
		sf:      make([]int, nl*nd),
		order:   make([][]int32, nl),
		ordBuf:  make([]int32, 0, nl*nd),
		eo:      make([]int32, nl*nd),
		eoLen:   make([]int, nl),
		spIdx:   make([]int32, nl*nd),
		spS:     make([]int64, nl*nd),
		spOff:   make([]int, nl+1),
		seen:    make([]bool, nd),
		cum:     make([]int, nl*nd),
		ext:     make([]int, nd),
		loopD:   make([]int32, nl*nd),
		loopB:   make([]int, nl*nd),
		bd:      make([]float64, len(s.compNames)),
		touched: make([]bool, len(s.compNames)),
		acc:     make([]Access, len(s.slots)),
		inst:    make([]float64, nl),
	}
}

// CountCacheInto additionally charges this Evaluator's memo-cache hits and
// misses to the given counters. The Session's lifetime counters (CacheStats)
// keep accumulating regardless; the per-run pair is what lets many searches
// share one long-lived Session — as an Engine does — while each Result.Stats
// still partitions cleanly per call.
func (e *Evaluator) CountCacheInto(hits, misses *obs.Counter) {
	e.hits, e.misses = hits, misses
}

// fire opens one evaluation: the Probe sees the mapping, then the chaos hook
// fires. m may be nil when the model has no Probe.
func (e *Evaluator) fire(m *mapping.Mapping) {
	if p := e.s.model.Probe; p != nil {
		p.BeforeEvaluate(m)
	}
	// Chaos hook: an injected evaluation fault panics, contained by the
	// caller's per-candidate isolation like any poisoned cost model.
	faults.MustFire(faults.SiteEvaluate)
}

// begin opens one evaluation of m and captures it into the scratch. It
// reports whether the model can represent m's factors (see snapshot).
func (e *Evaluator) begin(m *mapping.Mapping) bool {
	e.fire(m)
	return e.snapshot(m)
}

// EvaluateEDP scores m without allocating: EDP, EnergyPJ, Cycles and
// validity, +Inf scalars when invalid. Results are memoized in the Session's
// search-wide cache under the mapping's canonical Key; the Probe (fault
// injection) still fires on every call, before the cache is consulted.
func (e *Evaluator) EvaluateEDP(m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool) {
	if !e.begin(m) {
		return inf, inf, inf, false
	}
	return e.memoized()
}

// EvaluateRows is EvaluateEDP for a mapping held as factor rows: t and s are
// the temporal and spatial factor of dimension i (the workload's canonical
// order) at level l, at [l*nd+i]; order[l] is level l's declared loop order as
// dimension indices in [0, nd), possibly partial or with repeats. Same memo,
// same chaos sites, same scalars as EvaluateEDP on the equivalent Mapping
// (mapping.FromRows), which is built only for a model that carries a Probe.
func (e *Evaluator) EvaluateRows(t, s []int, order [][]int32) (edp, energyPJ, cycles float64, valid bool) {
	var m *mapping.Mapping
	if e.s.model.Probe != nil {
		m = mapping.FromRows(e.s.w, e.s.a, t, s, order)
	}
	e.fire(m)
	if !e.snapshotRows(t, s, order) {
		return inf, inf, inf, false
	}
	return e.memoized()
}

// memoized scores the snapshot through the Session's memo.
func (e *Evaluator) memoized() (edp, energyPJ, cycles float64, valid bool) {
	k := e.key()
	if v, ok := e.lookup(k); ok {
		// Chaos hook: a corrupt-kind cache-get fault perturbs the memoized
		// scalars on the way out (the stored entry stays clean), simulating
		// the memo corruption the final mapping audit exists to catch.
		if _, corrupt := faults.Fire(faults.SiteCacheGet); corrupt {
			return v.edp * 1.5, v.energy * 1.5, v.cycles, v.valid
		}
		return v.edp, v.energy, v.cycles, v.valid
	}
	edp, energyPJ, cycles, valid = e.compute()
	e.s.store(k, cacheEntry{edp: edp, energy: energyPJ, cycles: cycles, valid: valid})
	return edp, energyPJ, cycles, valid
}

// EvaluateEDPUncached is EvaluateEDP without the memoization layer — the
// raw compute path. Useful for one-shot scoring and for benchmarking the
// model itself.
func (e *Evaluator) EvaluateEDPUncached(m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool) {
	if !e.begin(m) {
		return inf, inf, inf, false
	}
	return e.compute()
}

// Report scores m like EvaluateEDPUncached — one evaluation, never served
// from the memo — and renders the accumulators behind the scalars: energy
// per component, words per level/buffer/tensor. An invalid mapping gets
// Valid=false, the violation mapping.Validate names, and +Inf scalars.
func (e *Evaluator) Report(m *mapping.Mapping) Report {
	s := e.s
	r := Report{
		EDP: inf, EnergyPJ: inf, Cycles: inf,
		Breakdown: map[string]float64{}, Accesses: map[string]Access{},
	}
	if e.begin(m) {
		r.EDP, r.EnergyPJ, r.Cycles, r.Valid = e.compute()
	}
	if !r.Valid {
		r.Invalid = m.Validate()
		return r
	}
	r.MACs = e.macs
	for i, name := range s.compNames {
		if e.touched[i] {
			r.Breakdown[name] = e.bd[i]
		}
	}
	for i, name := range s.slotNames {
		r.Accesses[name] = e.acc[i]
	}
	return r
}

// Key returns the mapping's canonical fingerprint, or ok=false when the
// model cannot represent the mapping's factors (see snapshot). No Probe
// fires: computing a key is not an evaluation.
func (e *Evaluator) Key(m *mapping.Mapping) (k Key, ok bool) {
	if !e.snapshot(m) {
		return Key{}, false
	}
	return e.key(), true
}

// KeyRows is Key for a mapping held as factor rows (see EvaluateRows).
func (e *Evaluator) KeyRows(t, s []int, order [][]int32) (k Key, ok bool) {
	if !e.snapshotRows(t, s, order) {
		return Key{}, false
	}
	return e.key(), true
}

// snapshot is the Mapping front of the scratch: it copies m's factor maps and
// loop orders into tb/sf/order and canonicalizes. It reports false for the
// two factor defects mapping.Validate rejects but the T/S view cannot see: a
// raw factor < 1, and a factor > 1 on a dimension outside the workload. (A
// factor of 1 out there, and an undeclared name in an Order, are invisible.)
func (e *Evaluator) snapshot(m *mapping.Mapping) bool {
	s := e.s
	nd := len(s.dims)
	for i := range e.tb {
		e.tb[i], e.sf[i] = 1, 1
	}
	e.ordBuf = e.ordBuf[:0]
	for l := 0; l < s.nLevels; l++ {
		lm := &m.Levels[l]
		if !s.scatter(lm.Temporal, e.tb[l*nd:]) || !s.scatter(lm.Spatial, e.sf[l*nd:]) {
			return false
		}
		lo := len(e.ordBuf)
		for _, d := range lm.Order {
			if i, known := s.dimIdx[d]; known {
				e.ordBuf = append(e.ordBuf, int32(i))
			}
		}
		e.order[l] = e.ordBuf[lo:]
	}
	return e.canon()
}

// scatter writes one level's factor map into its row (preset to 1), reporting
// false for a factor < 1 anywhere or > 1 on an undeclared dimension.
func (s *Session) scatter(factors map[tensor.Dim]int, row []int) bool {
	for d, n := range factors {
		if n < 1 {
			return false
		}
		if i, known := s.dimIdx[d]; known {
			row[i] = n
		} else if n > 1 {
			return false
		}
	}
	return true
}

// snapshotRows is the row front of the scratch (see EvaluateRows).
func (e *Evaluator) snapshotRows(t, s []int, order [][]int32) bool {
	copy(e.tb, t)
	copy(e.sf, s)
	copy(e.order, order)
	return e.canon()
}

// canon derives the canonical form compute and key read from tb, sf and
// order: the per-level spatial entries, and the effective order of the
// bound>1 temporal loops — declared order first (first mention wins), then
// the canonical remainder. Bound-1 loops never change a pass count, so
// dropping them here canonicalizes equal-cost orderings onto one Key (and is
// why the search's dedupe cannot tell apart two candidates that differ only
// in the order of a level whose tile is still unassigned). It reports false
// for a factor < 1.
func (e *Evaluator) canon() bool {
	s := e.s
	nd := len(s.dims)
	sp := 0
	for l := 0; l < s.nLevels; l++ {
		base := l * nd
		e.spOff[l] = sp
		for i := 0; i < nd; i++ {
			f := e.sf[base+i]
			if f < 1 || e.tb[base+i] < 1 {
				return false
			}
			if f > 1 {
				e.spIdx[sp] = int32(i)
				e.spS[sp] = int64(f)
				sp++
			}
		}
		cnt := 0
		for _, i := range e.order[l] {
			if e.seen[i] {
				continue
			}
			e.seen[i] = true
			if e.tb[base+int(i)] > 1 {
				e.eo[base+cnt] = i
				cnt++
			}
		}
		for i := 0; i < nd; i++ {
			if !e.seen[i] && e.tb[base+i] > 1 {
				e.eo[base+cnt] = int32(i)
				cnt++
			}
			e.seen[i] = false
		}
		e.eoLen[l] = cnt
	}
	e.spOff[s.nLevels] = sp
	return true
}

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// key folds the snapshot into a 128-bit fingerprint: two independently
// seeded/mixed 64-bit accumulators over the same value stream.
func (e *Evaluator) key() Key {
	s := e.s
	nd := len(s.dims)
	h1 := uint64(0x9e3779b97f4a7c15)
	h2 := uint64(0xc2b2ae3d27d4eb4f)
	fold := func(v uint64) {
		h1 = mix64(h1 ^ v)
		h2 = mix64(h2 + v*0xff51afd7ed558ccd)
	}
	for l := 0; l < s.nLevels; l++ {
		base := l * nd
		fold(0xf00d + uint64(l))
		for k := 0; k < e.eoLen[l]; k++ {
			fold(uint64(e.eo[base+k]) | 1<<32)
		}
		for i := 0; i < nd; i++ {
			fold(uint64(e.tb[base+i]))
			fold(uint64(e.sf[base+i]) | 1<<40)
		}
	}
	return Key{Hi: h1, Lo: h2}
}

// compute runs the cost model over the snapshot. It allocates nothing.
func (e *Evaluator) compute() (edp, energyPJ, cycles float64, valid bool) {
	e.extents()
	if !e.legal() {
		return inf, inf, inf, false
	}
	energyPJ, cycles = e.traffic()
	return energyPJ * cycles, energyPJ, cycles, true
}

// extents fills the cumulative extents per level: cum[l][i] is the tile
// extent of dim i at level l (mapping.Extent's int-multiply sequence).
func (e *Evaluator) extents() {
	s := e.s
	nd := len(s.dims)
	for i := 0; i < nd; i++ {
		e.cum[i] = e.tb[i] * e.sf[i]
	}
	for l := 1; l < s.nLevels; l++ {
		base, prev := l*nd, (l-1)*nd
		for i := 0; i < nd; i++ {
			e.cum[base+i] = e.cum[prev+i] * (e.tb[base+i] * e.sf[base+i])
		}
	}
}

// legal is mapping.Validate's boolean outcome on the snapshot: coverage,
// buffer capacity, fanout, and reduction dimensions unrolled only where the
// level can combine partial sums.
func (e *Evaluator) legal() bool {
	s := e.s
	nd := len(s.dims)
	topBase := (s.nLevels - 1) * nd
	for i := 0; i < nd; i++ {
		if e.cum[topBase+i] < s.bounds[i] {
			return false
		}
	}
	for lvl := range s.caps {
		if !s.LevelFits(lvl, e.cum[lvl*nd:]) {
			return false
		}
	}
	for l := 0; l < s.nLevels; l++ {
		if e.spatialProduct(l) > s.fanout[l] {
			return false
		}
		if s.noSR[l] {
			base := l * nd
			for _, ri := range s.redDims {
				if e.sf[base+ri] > 1 {
					return false
				}
			}
		}
	}
	return true
}

// spatialProduct is the product of level l's spatial factors.
func (e *Evaluator) spatialProduct(l int) int {
	spp := 1
	for k := e.spOff[l]; k < e.spOff[l+1]; k++ {
		spp *= int(e.spS[k])
	}
	return spp
}

// traffic accumulates every tensor's flows into the component energies and
// slot word counts, and totals them into energy and cycles.
func (e *Evaluator) traffic() (energyPJ, cycles float64) {
	s := e.s
	nd := len(s.dims)

	// MACs actually executed, padding included: the product of per-dim
	// coverage.
	e.macs = 1
	for _, n := range e.cum[(s.nLevels-1)*nd:] {
		e.macs *= int64(n)
	}

	for i := range e.bd {
		e.bd[i] = 0
		e.touched[i] = false
	}
	for i := range e.acc {
		e.acc[i] = Access{}
	}
	e.flows = e.flows[:0]
	e.add(s.compMAC, float64(e.macs)*s.macPJ)

	for ti := range s.tensors {
		tp := &s.tensors[ti]
		for fi := range tp.flows {
			fl := &tp.flows[fi]
			if fl.child < 0 {
				e.computeFlow(tp, fl)
			} else {
				e.pairFlow(tp, fl)
			}
		}
	}

	for _, ci := range s.sumOrder {
		energyPJ += e.bd[ci]
	}
	return energyPJ, e.cycles()
}

// add charges pj to one component.
func (e *Evaluator) add(comp int, pj float64) {
	e.bd[comp] += pj
	e.touched[comp] = true
}

// footprint is Tensor.Footprint over the per-dim extents ext: the product
// over axes of 1 + Σ stride·(extent-1).
func footprint(tp *tensorPlan, ext []int) int {
	fp := 1
	for ai := range tp.axes {
		ex := 1
		for _, t := range tp.axes[ai].terms {
			n := ext[t.dim]
			if n <= 0 {
				n = 1
			}
			ex += t.stride * (n - 1)
		}
		fp *= ex
	}
	return fp
}

// mergeWidth is the product of spatial factors at levels [lo, hi] on
// dimensions not indexing tp: how many child instances each parent word is
// multicast to (inputs), how many child partial results combine into one
// parent word (outputs — reduction dims are exactly an output's
// non-indexing dims), and the merge divisor of the compute flow.
func (e *Evaluator) mergeWidth(tp *tensorPlan, lo, hi int) int64 {
	w := int64(1)
	for k := e.spOff[lo]; k < e.spOff[hi+1]; k++ {
		if !tp.indexing[e.spIdx[k]] {
			w *= e.spS[k]
		}
	}
	return w
}

// computeFlow models the MAC datapath's consumption of tp from its innermost
// keeper: each MAC consumes one word of each input and produces one update
// of each output per cycle. Spatial distribution at or below the keeper
// merges accesses: multicast (non-indexing unroll) serves several MACs with
// one read, and spatial reduction (reduction-dimension unroll) combines
// several updates into one write. Temporal reuse below the keeper is
// conservatively not modeled (no implicit operand latches): accesses merge
// only spatially.
func (e *Evaluator) computeFlow(tp *tensorPlan, fl *flowPlan) {
	n := e.macs / e.mergeWidth(tp, 0, fl.parent)
	if tp.output {
		e.account(tp, fl, 0, n, n, 0, 0) // read-modify-write accumulation
	} else {
		e.account(tp, fl, n, 0, 0, 0, 0)
	}
}

// pairFlow computes the traffic between keeper levels c and p (c < p).
//
// Refills of the level-c tile are driven by every temporal loop above c —
// loops above p change p's own tile and therefore also re-trigger refills of
// c — so passes are counted over loops at levels (c, top], with the
// innermost non-indexing run skipped (passCount). Spatially unrolled indexing
// dimensions enlarge the aggregate slice read from p (the footprint ignores
// non-indexing spatial dims — multicast, Eqs. (5)-(7)). Non-indexing spatial
// unrolling *above* p replicates p's tile across p-instances, each of which
// pays its own accesses.
func (e *Evaluator) pairFlow(tp *tensorPlan, fl *flowPlan) {
	s := e.s
	nd := len(s.dims)
	top := s.nLevels - 1
	c, p := fl.child, fl.parent

	// Working extents: the child tile enlarged by every spatial unroll above
	// it; replication above the parent multiplies the footprint instead.
	copy(e.ext, e.cum[c*nd:c*nd+nd])
	for k := e.spOff[c+1]; k < e.spOff[top+1]; k++ {
		e.ext[e.spIdx[k]] *= int(e.spS[k])
	}
	fp := int64(footprint(tp, e.ext))
	fp *= e.mergeWidth(tp, p+1, top)

	// Temporal loops at levels (c, top], innermost first; bound-1 loops are
	// already absent from the snapshot's effective orders.
	nLoops := 0
	for l := c + 1; l <= top; l++ {
		base := l * nd
		for k := 0; k < e.eoLen[l]; k++ {
			i := e.eo[base+k]
			e.loopD[nLoops] = i
			e.loopB[nLoops] = e.tb[base+int(i)]
			nLoops++
		}
	}
	passes, breakIdx := e.passCount(tp, nLoops)

	if tp.output {
		// Each pass writes the tile back; every pass beyond the first visit
		// of an output tile (outIters of them) reads its partial sums first.
		outIters := int64(1)
		for li := 0; li < nLoops; li++ {
			if tp.indexing[e.loopD[li]] {
				outIters *= int64(e.loopB[li])
			}
		}
		pw := passes * fp
		psum := (passes - outIters) * fp
		drains := pw * e.mergeWidth(tp, c+1, p)
		e.account(tp, fl, 0, pw, psum, 0, drains)
		return
	}

	reads := passes * fp
	if !s.model.NoSlidingReuse && breakIdx >= 0 && tp.winOnly[e.loopD[breakIdx]] {
		// The reuse-breaking loop walks a window dimension: after the first
		// tile of each sweep, a step fetches only the new portion.
		inc := e.incFootprint(tp, int(e.loopD[breakIdx]))
		outer := passes / int64(e.loopB[breakIdx])
		reads = outer * (fp + int64(e.loopB[breakIdx]-1)*inc)
	}
	fills := reads * e.mergeWidth(tp, c+1, p)
	e.account(tp, fl, reads, 0, 0, fills, 0)
}

// passCount applies Ordering Principles 1-2 to the first nLoops collected
// loops: the number of times the child tile is refilled is the product of all
// loop bounds except the maximal innermost-contiguous run of loops not
// indexing tp. It also returns the index of the loop that breaks the reuse
// run (the innermost indexing loop), or -1.
func (e *Evaluator) passCount(tp *tensorPlan, nLoops int) (passes int64, breakIdx int) {
	passes, breakIdx = 1, -1
	for li := 0; li < nLoops; li++ {
		if breakIdx < 0 {
			if !tp.indexing[e.loopD[li]] {
				continue // fully reused across this loop
			}
			breakIdx = li
		}
		passes *= int64(e.loopB[li])
	}
	return passes, breakIdx
}

// incFootprint is the footprint of the *new* data fetched when the tile
// advances one step along window dimension d, over the working extents: for
// each compound axis containing d, the axis extent is replaced by the step
// size stride_d * ext[d] (capped at the full axis extent).
func (e *Evaluator) incFootprint(tp *tensorPlan, d int) int64 {
	fp := int64(1)
	for ai := range tp.axes {
		terms := tp.axes[ai].terms
		full := 1
		hasD := false
		strideD := 0
		for _, t := range terms {
			n := e.ext[t.dim]
			if n <= 0 {
				n = 1
			}
			full += t.stride * (n - 1)
			if t.dim == d {
				hasD = true
				strideD = t.stride
			}
		}
		if hasD && len(terms) > 1 {
			step := strideD * e.ext[d]
			if step > full {
				step = full
			}
			fp *= int64(step)
		} else {
			fp *= int64(full)
		}
	}
	return fp
}

// account adds one flow to the accumulators: pr words read out of the parent
// toward the child, pw written into it from the child (outputs), psum
// partial-sum words read back out of it, fills written into the child
// instances (inputs), drains read out of them (outputs).
func (e *Evaluator) account(tp *tensorPlan, fl *flowPlan, pr, pw, psum, fills, drains int64) {
	s := e.s
	if e.recordFlows {
		e.flows = append(e.flows, Flow{
			Tensor: tp.t, Child: fl.child, Parent: fl.parent,
			ParentReads: pr, ParentWrites: pw, PsumReads: psum,
			ChildFills: fills, ChildDrains: drains,
		})
	}
	e.acc[fl.pSlot].Reads += pr + psum
	e.acc[fl.pSlot].Writes += pw
	e.add(fl.pComp, float64(pr+psum)*fl.pReadPJ+float64(pw)*fl.pWritePJ)

	// Child side: fills for inputs, drains + psum refills for outputs. The
	// MAC datapath (child < 0) has none: its operand consumption is part of
	// MAC energy.
	if fl.child >= 0 {
		if tp.output {
			e.acc[fl.cSlot].Reads += drains
			e.acc[fl.cSlot].Writes += psum
			e.add(fl.cComp, float64(drains)*fl.cReadPJ+float64(psum)*fl.cWritePJ)
		} else {
			e.acc[fl.cSlot].Writes += fills
			e.add(fl.cComp, float64(fills)*fl.cWritePJ)
		}
	}

	// NoC energy across the spatial levels the flow traverses.
	if tp.output {
		// Collection: child partials flow up, combined at reducing levels.
		volBelow := float64(pw) * float64(e.mergeWidth(tp, fl.child+1, fl.parent))
		for l := fl.child + 1; l <= fl.parent; l++ {
			if s.fanout[l] <= 1 {
				continue
			}
			if rho := e.mergeWidth(tp, l, l); rho > 1 {
				e.add(s.compSR, volBelow*s.levels[l].spatialReducePJ)
				volBelow /= float64(rho)
			}
			e.add(s.compNoC, volBelow*s.levels[l].noCPerWordPJ)
		}
	} else {
		// Distribution: parent words flow down, multicast at each level.
		vol := float64(pr)
		for l := fl.parent; l > fl.child; l-- {
			if s.fanout[l] <= 1 {
				continue
			}
			e.add(s.compNoC, vol*s.levels[l].noCPerWordPJ)
			vol *= float64(e.mergeWidth(tp, l, l))
			e.add(s.compNoC, vol*s.levels[l].noCTagCheckPJ)
		}
	}
}

// cycles is the double-buffered latency: the maximum of compute time and
// any slot's transfer time (reads and writes serialized per port, parallel
// instances dividing the traffic).
func (e *Evaluator) cycles() float64 {
	s := e.s
	// Instances of level l actually active = product of the spatial factors
	// used above l.
	acc, spatialUsed := 1.0, 1
	for l := s.nLevels - 1; l >= 0; l-- {
		e.inst[l] = acc
		spp := e.spatialProduct(l)
		acc *= float64(spp)
		spatialUsed *= spp
	}
	worst := float64(e.macs) / float64(spatialUsed)

	for si := range s.slots {
		sp := &s.slots[si]
		var t float64
		if sp.readBW > 0 {
			t += float64(e.acc[si].Reads) / (sp.readBW * e.inst[sp.lvl])
		}
		if sp.writeBW > 0 {
			t += float64(e.acc[si].Writes) / (sp.writeBW * e.inst[sp.lvl])
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
