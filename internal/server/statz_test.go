package server

import (
	"testing"

	"sunstone/internal/obs"
)

// TestStatzFlowIdentity: the service-lifetime search totals are the sum of
// the searches that ran — every SearchStats field, the analytic-bound cuts
// included, and a network job's repeated layer (resnet18's conv2_x fills four
// chain positions) once — so the flow identity every single search obeys
// holds on /statz too.
func TestStatzFlowIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	conv := waitTerminal(t, s, submit(t, s, `{"arch":"conventional","conv":{"K":16,"C":16,"P":14,"Q":14,"R":3,"S":3}}`).ID)
	net := waitTerminal(t, s, submit(t, s, `{"arch":"tiny","options":{"beam_width":4},"network":{"preset":"resnet18"}}`).ID)
	for _, st := range []JobStatus{conv, net} {
		if st.State != JobDone {
			t.Fatalf("job %s: state %q (error %q)", st.ID, st.State, st.Error)
		}
	}
	s.mu.Lock()
	cj, nj := s.jobs[conv.ID], s.jobs[net.ID]
	s.mu.Unlock()

	reg := obs.NewRegistry()
	want := obs.NewSearchCounters(reg)
	want.Add(cj.res.Stats)
	searched := map[int]bool{} // distinct layers: an unfused schedule searches each once
	pos := nj.net.Positions()
	for i, p := range pos {
		if !searched[p.Layer] {
			searched[p.Layer] = true
			want.Add(nj.nres.Layers[i].Result.Stats)
		}
	}
	if len(searched) == len(pos) {
		t.Fatal("the network repeats no layer; the test needs one that does")
	}

	got := s.Stats().Search
	if exp := obs.SnapshotSearch(reg); got != exp {
		t.Errorf("/statz search totals\n got %+v\nwant %+v (the conv job plus the network's %d distinct layers over %d positions)", got, exp, len(searched), len(pos))
	}
	if got.BoundPruned == 0 {
		t.Error("no analytic-bound cut in the totals; the jobs no longer exercise pruned.analytic")
	}
	if fates := got.Pruned() + got.Deduped + got.Evaluated + got.Skipped; got.Generated != fates {
		t.Errorf("flow identity fails on the service totals: generated %d, fates sum %d (%+v)", got.Generated, fates, got)
	}
}
