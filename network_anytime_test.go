package sunstone_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sunstone"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
)

// smallNet returns three quick-to-map conv shapes for network stress tests.
func smallNet() []sunstone.ConvShape {
	return []sunstone.ConvShape{
		{Name: "a", K: 8, C: 8, P: 14, Q: 14, R: 3, S: 3, StrideH: 1, StrideW: 1},
		{Name: "b", K: 16, C: 8, P: 7, Q: 7, R: 3, S: 3, StrideH: 1, StrideW: 1},
		{Name: "c", K: 8, C: 16, P: 7, Q: 7, R: 1, S: 1, StrideH: 1, StrideW: 1},
	}
}

// The per-layer schedule is the MaxGroup 1 cut of the one network scheduler:
// fail-fast by default, or running every layer to its own conclusion.
var (
	perLayer          = sunstone.FusionOptions{MaxGroup: 1}
	perLayerKeepGoing = sunstone.FusionOptions{MaxGroup: 1, ContinueOnError: true}
)

// scheduleShapes builds the conv-chain IR of a shape table at batch 1 and
// schedules it on a fresh Engine.
func scheduleShapes(ctx context.Context, name string, shapes []sunstone.ConvShape, repeats []int, a *sunstone.Arch, opt sunstone.Options, fuse sunstone.FusionOptions) (sunstone.NetworkSchedule, error) {
	net, err := sunstone.FromConvShapes(name, shapes, 1, repeats)
	if err != nil {
		return sunstone.NetworkSchedule{}, err
	}
	return sunstone.NewEngine().ScheduleNetworkFused(ctx, net, a, opt, fuse)
}

// poisonProbe panics on every evaluation of the targeted layer's workload —
// injected cost-model failure confined to one layer.
type poisonProbe struct{ layer string }

func (p poisonProbe) BeforeEvaluate(m *mapping.Mapping) {
	if m.Workload.Name == p.layer {
		panic("injected fault in layer " + p.layer)
	}
}

func poisonedOptions(layer string) sunstone.Options {
	model := cost.Default
	model.Probe = poisonProbe{layer: layer}
	return sunstone.Options{Model: model}
}

// failFastProbe makes the fail-fast policy observable without a race on
// search speed: every evaluation of the bad layer panics, closing failed on
// the first; every evaluation of the sibling waits for failed, then panics
// too. The sibling can complete nothing valid, and cannot begin to fail on
// its own before the bad layer's search is already failing — so what ends
// its (much longer) search is the cancellation.
type failFastProbe struct {
	bad, sibling string
	failed       chan struct{}
	once         sync.Once
}

func (p *failFastProbe) BeforeEvaluate(m *mapping.Mapping) {
	switch m.Workload.Name {
	case p.bad:
		p.once.Do(func() { close(p.failed) })
		panic("injected fault in layer " + p.bad)
	case p.sibling:
		<-p.failed
		panic("layer " + p.sibling + " evaluated after its sibling failed")
	}
}

func failFastModel(bad, sibling string) cost.Model {
	model := cost.Default
	model.Probe = &failFastProbe{bad: bad, sibling: sibling, failed: make(chan struct{})}
	return model
}

func TestScheduleNetworkPanicIsolatedToOneLayer(t *testing.T) {
	before := runtime.NumGoroutine()
	sched, err := scheduleShapes(context.Background(), "net", smallNet(), nil,
		sunstone.Tiny(256), poisonedOptions("b"), perLayerKeepGoing)
	if err == nil {
		t.Fatal("poisoned layer must surface as an error")
	}
	if !strings.Contains(err.Error(), "injected fault in layer b") {
		t.Errorf("error lost the panic cause: %v", err)
	}
	if sched.Failed != 1 {
		t.Errorf("Failed = %d, want exactly the poisoned layer", sched.Failed)
	}
	for _, l := range sched.Layers {
		switch l.Layer {
		case "b":
			if l.Err == nil {
				t.Error("poisoned layer b has no error")
			}
		default:
			if l.Err != nil || l.Result.Mapping == nil {
				t.Errorf("layer %s should survive a sibling's poisoned model: err=%v", l.Layer, l.Err)
			}
		}
	}
	if sched.TotalEnergyPJ <= 0 || sched.TotalCycles <= 0 {
		t.Error("totals should cover the surviving layers")
	}
	// No goroutines may leak across the failed schedule.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestScheduleNetworkFailFastCancelsSiblings(t *testing.T) {
	sched, err := scheduleShapes(context.Background(), "net", smallNet(), nil,
		sunstone.Tiny(256), poisonedOptions("a"), perLayer)
	if err == nil {
		t.Fatal("fail-fast schedule with a poisoned layer must error")
	}
	if !strings.Contains(err.Error(), "a: ") {
		t.Errorf("error should name the failed layer: %v", err)
	}
	var failed int
	for _, l := range sched.Layers {
		if l.Err != nil {
			failed++
			continue
		}
		// Siblings either finished before the cancellation or degraded to
		// their best-so-far mapping — never a panic, never a nil result
		// without an error.
		if l.Result.Mapping == nil {
			t.Errorf("layer %s: no error but no mapping either", l.Layer)
		}
	}
	if failed != sched.Failed {
		t.Errorf("Failed = %d but %d layers carry errors", sched.Failed, failed)
	}
}

func TestScheduleNetworkAllLayersPoisoned(t *testing.T) {
	model := cost.Default
	model.Probe = poisonProbe{layer: "a"}
	shapes := smallNet()[:1]
	sched, err := scheduleShapes(context.Background(), "net", shapes, nil,
		sunstone.Tiny(256), sunstone.Options{Model: model}, perLayerKeepGoing)
	if err == nil || sched.Failed != 1 {
		t.Fatalf("fully poisoned net: err=%v failed=%d", err, sched.Failed)
	}
	if sched.TotalEnergyPJ != 0 || sched.EDP != 0 {
		t.Error("totals must be zero when every layer failed")
	}
}

func TestScheduleNetworkContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sched, err := scheduleShapes(ctx, "net", smallNet(), nil,
		sunstone.Tiny(256), sunstone.Options{}, perLayer)
	if err != nil {
		t.Fatalf("canceled schedule should degrade, not fail: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("canceled schedule took %v", el)
	}
	for _, l := range sched.Layers {
		if l.Result.Stopped != sunstone.StopCanceled {
			t.Errorf("layer %s: Stopped = %v, want canceled", l.Layer, l.Result.Stopped)
		}
		if l.Result.Mapping == nil {
			t.Errorf("layer %s: canceled layer lost its best-so-far mapping", l.Layer)
		}
	}
}

func TestOptimizeFacadeTimeout(t *testing.T) {
	// Big enough that the full search takes well over the timeout (about
	// 40 ms on a 2.6 GHz core since the dense expansion rewrite).
	w := sunstone.Conv2D("big", 32, 512, 384, 112, 112, 5, 5, 1, 1)
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.Simba()}, sunstone.Options{Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != sunstone.StopDeadline {
		t.Fatalf("Stopped = %v, want StopDeadline", res.Stopped)
	}
	if res.Mapping == nil {
		t.Fatal("deadline run lost its best-so-far mapping")
	}
	if verr := res.Mapping.Validate(); verr != nil {
		t.Fatalf("best-so-far mapping invalid: %v", verr)
	}
}

func TestBaselineMapContextDeadline(t *testing.T) {
	w := sunstone.Conv2D("big", 4, 64, 64, 28, 28, 3, 3, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	// The slow configuration runs for tens of seconds unbounded, so the
	// 20ms context deadline is what stops it.
	r := baseline(t, "timeloop-slow").MapContext(ctx, w, sunstone.Conventional())
	if el := time.Since(start); el > time.Second {
		t.Errorf("deadline-bounded Timeloop ran %v", el)
	}
	if r.Stopped != sunstone.StopDeadline {
		t.Errorf("Stopped = %v, want deadline", r.Stopped)
	}
}
