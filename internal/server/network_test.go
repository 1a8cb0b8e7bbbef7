package server

import (
	"fmt"
	"net/http"
	"testing"

	"sunstone/internal/faults"
)

// tinyChain is a two-layer network submission whose member searches finish
// in well under a millisecond (the network analog of tinyConv).
const tinyChain = `{"arch":"tiny","options":{"beam_width":4},` +
	`"network":{"fused":%v,"layers":[` +
	`{"K":4,"C":4,"P":4,"Q":4,"R":1,"S":1},` +
	`{"K":4,"C":4,"P":4,"Q":4,"R":1,"S":1}]}}`

func TestNetworkJobFused(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	st := submit(t, s, fmt.Sprintf(tinyChain, true))
	if st.Network != "network" || !st.Fused {
		t.Fatalf("submit echo: network=%q fused=%v", st.Network, st.Fused)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	if fin.Stopped != "complete" {
		t.Errorf("stopped = %q, want complete", fin.Stopped)
	}
	if fin.EDP <= 0 || fin.UnfusedEDP <= 0 {
		t.Errorf("totals missing: edp %v, unfused %v", fin.EDP, fin.UnfusedEDP)
	}
	if fin.EDP > fin.UnfusedEDP {
		t.Errorf("fused EDP %v worse than the unfused baseline %v", fin.EDP, fin.UnfusedEDP)
	}
	if len(fin.Mapping) != 0 {
		t.Error("network jobs report per-group schedules, not a single mapping")
	}
	// The reported fusion cut tiles the chain.
	at := 0
	for _, g := range fin.Groups {
		if g.Start != at || len(g.Layers) != g.End-g.Start {
			t.Fatalf("groups do not tile the chain: %+v", fin.Groups)
		}
		if g.End-g.Start == 1 && g.PinLevel != -1 {
			t.Errorf("singleton group reports pin level %d", g.PinLevel)
		}
		at = g.End
	}
	if at != 2 {
		t.Fatalf("groups cover %d of 2 positions: %+v", at, fin.Groups)
	}
}

func TestNetworkJobUnfusedBaseline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	fin := waitTerminal(t, s, submit(t, s, fmt.Sprintf(tinyChain, false)).ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	if fin.Fused {
		t.Error("unfused job echoed fused=true")
	}
	if fin.EDP != fin.UnfusedEDP {
		t.Errorf("unfused job: EDP %v != baseline %v", fin.EDP, fin.UnfusedEDP)
	}
	for _, g := range fin.Groups {
		if g.End-g.Start != 1 || g.PinLevel != -1 {
			t.Errorf("unfused job produced a fused group: %+v", g)
		}
	}
}

// TestNetworkJobReportsMemberAttempts: a network job's attempts and
// fallback_used are its members' — with every compile failing, each of the
// two layers burns its primary attempts and lands on innermost-fit.
// (They used to read the single-job result, which a network job never
// fills: attempts 0 and no fallback whatever the members did.)
func TestNetworkJobReportsMemberAttempts(t *testing.T) {
	inj, err := faults.NewInjector(7, faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Activate(inj)()
	s := newTestServer(t, Config{Workers: 1})
	fin := waitTerminal(t, s, submit(t, s, fmt.Sprintf(tinyChain, false)).ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	if fin.FallbackUsed != "innermost-fit" {
		t.Errorf("fallback_used = %q, want the members' innermost-fit", fin.FallbackUsed)
	}
	if fin.Attempts < 4 {
		t.Errorf("attempts = %d, want both layers' failed primaries plus their fallbacks", fin.Attempts)
	}
}

func TestNetworkJobValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"two forms": `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},` +
			`"network":{"preset":"transformer"}}`,
		"preset and layers": `{"network":{"preset":"transformer",` +
			`"layers":[{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1}]}}`,
		"neither":            `{"network":{}}`,
		"unknown preset":     `{"network":{"preset":"vgg16"}}`,
		"max_group unfused":  `{"network":{"preset":"transformer","max_group":3}}`,
		"negative max_group": `{"network":{"preset":"transformer","fused":true,"max_group":-1}}`,
		"transformer batch":  `{"network":{"preset":"transformer","batch":4}}`,
		"bad layer geometry": `{"network":{"layers":[{"K":0,"C":1,"P":1,"Q":1,"R":1,"S":1}]}}`,
		"layer sets batch":   `{"network":{"layers":[{"N":2,"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1}]}}`,
		"non-edp objective":  `{"network":{"preset":"transformer"},"options":{"objective":"energy"}}`,
	} {
		rec, _ := do(t, s, "POST", "/v1/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rec.Code, rec.Body.String())
		}
	}
}
