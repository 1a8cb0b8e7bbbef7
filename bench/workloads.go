package main

import (
	"fmt"
	"math/rand"
	"sort"

	"sunstone/internal/arch"
	"sunstone/internal/network"
	"sunstone/internal/serde"
	"sunstone/internal/server"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// Workload names, in the order the suite runs and reports them.
const (
	wlColdLayers     = "cold-layers"
	wlNetworkFused   = "network-fused"
	wlServiceMix     = "service-mix"
	wlServiceDurable = "service-durable"
)

var workloadNames = []string{wlColdLayers, wlNetworkFused, wlServiceMix, wlServiceDurable}

// nominalSeconds is the run length the frozen operation counts below were
// sized for (BENCHMARK.json run_seconds). -seconds scales the counts
// linearly from here, so a run does a fixed amount of work, never a fixed
// duration: both sides of a comparison execute identical operations.
const nominalSeconds = 20

// Frozen operation counts at nominalSeconds.
const (
	coldRounds    = 9
	networkRounds = 10
	serviceJobs   = 2000
)

// drawSeed freezes which rows the stratified draws pick. It is a constant,
// not -seed: edp_geomean is gated at "exact" and the timing metrics at a few
// percent across seeds, which only holds while every seed runs the same
// rows. -seed drives the order and interleaving of operations instead.
const drawSeed = 20230423

var machines = []struct {
	name string
	mk   func() *arch.Arch
}{
	{"conventional", arch.Conventional},
	{"simba", arch.Simba},
	{"diannao", arch.DianNao},
}

func machine(name string) *arch.Arch {
	for _, m := range machines {
		if m.name == name {
			return m.mk()
		}
	}
	panic("bench: unknown machine " + name)
}

// Kernel families: the unit of the stratified draw and of the down-scaled
// exec.Verify twins.
const (
	famConvInf = "conv-inference"
	famConvWU  = "conv-weight-update"
	famMTTKRP  = "mttkrp"
	famTTMc    = "ttmc"
	famSDDMM   = "sddmm"
	famFC      = "fc"
)

// poolEntry is one kernel of the paper's evaluation pool.
type poolEntry struct {
	name    string // net/layer/variant
	stratum string
	family  string
	mk      func() *tensor.Workload
}

// evalBatch is the batch size of the paper's DNN experiments (Figs. 7, 8).
const evalBatch = 16

// evaluationPool lists the paper's evaluation kernels: ResNet-18 and
// Inception-v3 inference and weight update, VGG16 and AlexNet inference,
// and the Fig. 6 tensor kernels on their datasets.
func evaluationPool() []poolEntry {
	var pool []poolEntry
	conv := func(net string, shapes []workloads.ConvShape, wu bool) {
		for _, cs := range shapes {
			pool = append(pool, poolEntry{
				name: net + "/" + cs.Name + "/inf", stratum: net + "-inf", family: famConvInf,
				mk: func() *tensor.Workload { return cs.Inference(evalBatch) },
			})
			if wu {
				pool = append(pool, poolEntry{
					name: net + "/" + cs.Name + "/wu", stratum: net + "-wu", family: famConvWU,
					mk: func() *tensor.Workload { return cs.WeightUpdate(evalBatch) },
				})
			}
		}
	}
	conv("resnet18", workloads.ResNet18, true)
	conv("inception", workloads.InceptionV3, true)
	conv("vgg16", workloads.VGG16, false)
	conv("alexnet", workloads.AlexNet, false)
	for _, d := range []workloads.TensorDataset{workloads.Nell2, workloads.Netflix, workloads.Poisson1} {
		pool = append(pool,
			poolEntry{name: "mttkrp/" + d.Name, stratum: "fig6", family: famMTTKRP,
				mk: func() *tensor.Workload { return workloads.MTTKRPOn(d) }},
			poolEntry{name: "ttmc/" + d.Name, stratum: "fig6", family: famTTMc,
				mk: func() *tensor.Workload { return workloads.TTMcOn(d) }})
	}
	for _, d := range []workloads.MatrixDataset{workloads.Bcsstk17, workloads.Cant} {
		pool = append(pool, poolEntry{name: "sddmm/" + d.Name, stratum: "fig6", family: famSDDMM,
			mk: func() *tensor.Workload { return workloads.SDDMMOn(d) }})
	}
	return pool
}

// coldQuota is the stratified draw of cold-layers: rows per stratum per
// machine, 16 a machine. Conventional keeps all eight Fig. 6 kernels (the
// machine the paper ran them on) and leans to the Fig. 7 weight-update
// layers; Simba leans to the Fig. 8 ResNet-18 inference layers.
var coldQuota = map[string]map[string]int{
	"conventional": {"fig6": 8, "inception-wu": 3, "resnet18-inf": 2, "inception-inf": 1, "vgg16-inf": 1, "alexnet-inf": 1},
	"simba":        {"resnet18-inf": 5, "resnet18-wu": 2, "inception-inf": 2, "inception-wu": 2, "vgg16-inf": 2, "alexnet-inf": 1, "fig6": 2},
	"diannao":      {"resnet18-inf": 3, "resnet18-wu": 2, "inception-inf": 3, "inception-wu": 2, "vgg16-inf": 2, "alexnet-inf": 2, "fig6": 2},
}

// row is one repeated operation of a library workload: a single-layer solve
// (net == nil) or a whole-network schedule.
type row struct {
	name    string
	machine string
	family  string
	w       *tensor.Workload // single-layer rows
	net     *network.Network // network rows
	fused   bool             // network rows: fusion on (off = MaxGroup 1)
}

// coldRows draws the cold-layers rows. maxRows > 0 keeps only the first
// maxRows per machine (the tests' down-scaled smoke).
func coldRows(maxRows int) []row {
	pool := evaluationPool()
	rng := rand.New(rand.NewSource(drawSeed))
	var rows []row
	for _, m := range machines {
		quota := coldQuota[m.name]
		strata := make([]string, 0, len(quota))
		for s := range quota {
			strata = append(strata, s)
		}
		sort.Strings(strata)
		var picked []row
		for _, s := range strata {
			var members []poolEntry
			for _, p := range pool {
				if p.stratum == s {
					members = append(members, p)
				}
			}
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			for _, p := range members[:quota[s]] {
				picked = append(picked, row{name: p.name + "@" + m.name, machine: m.name, family: p.family, w: p.mk()})
			}
		}
		if maxRows > 0 && len(picked) > maxRows {
			picked = picked[:maxRows]
		}
		rows = append(rows, picked...)
	}
	return rows
}

// seededChain is an inline conv chain whose channel widths and grid come
// from the frozen draw: three 3x3 layers that chain (K_i == C_{i+1}), so
// every boundary is fusible.
func seededChain(name string, rng *rand.Rand) *network.Network {
	widths := []int{32, 48, 64, 96, 128}
	grids := []int{14, 28, 56}
	g := grids[rng.Intn(len(grids))]
	c := widths[rng.Intn(len(widths))]
	var shapes []workloads.ConvShape
	for i := 0; i < 3; i++ {
		k := widths[rng.Intn(len(widths))]
		shapes = append(shapes, workloads.ConvShape{
			Name: fmt.Sprintf("c%d", i), K: k, C: c, P: g, Q: g, R: 3, S: 3, StrideH: 1, StrideW: 1,
		})
		c = k
	}
	net, err := network.FromConvShapes(name, shapes, 1, nil)
	if err != nil {
		panic(err)
	}
	return net
}

// networkRows lists the network-fused rows. maxRows > 0 keeps the cheapest
// few (the tests' smoke).
func networkRows(maxRows int) []row {
	conv := func(name string, shapes []workloads.ConvShape, batch int, repeats []int) *network.Network {
		net, err := network.FromConvShapes(name, shapes, batch, repeats)
		if err != nil {
			panic(err)
		}
		return net
	}
	resnet := func() *network.Network {
		return conv("resnet18", workloads.ResNet18, evalBatch, workloads.ResNet18Repeats())
	}
	transformer := func() *network.Network { return network.TransformerChain(512, 512, 2048) }
	rng := rand.New(rand.NewSource(drawSeed))
	rows := []row{
		{name: "transformer/conventional/fused", machine: "conventional", net: transformer(), fused: true},
		{name: "transformer/simba/fused", machine: "simba", net: transformer(), fused: true},
		{name: "chain-a/conventional/fused", machine: "conventional", net: seededChain("chain-a", rng), fused: true},
		{name: "chain-b/simba/fused", machine: "simba", net: seededChain("chain-b", rng), fused: true},
		{name: "alexnet/diannao/unfused", machine: "diannao", net: conv("alexnet", workloads.AlexNet, evalBatch, nil)},
		{name: "resnet18/simba/unfused", machine: "simba", net: resnet()},
		{name: "resnet18/conventional/unfused", machine: "conventional", net: resnet()},
		{name: "resnet18/conventional/fused", machine: "conventional", net: resnet(), fused: true},
		{name: "inception/conventional/fused", machine: "conventional", net: conv("inception", workloads.InceptionV3, evalBatch, nil), fused: true},
		{name: "vgg16/simba/fused", machine: "simba", net: conv("vgg16", workloads.VGG16, evalBatch, nil), fused: true},
	}
	for i := range rows {
		rows[i].family = famConvInf
		if rows[i].net.Name == "transformer" {
			rows[i].family = famFC
		}
	}
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	return rows
}

// libPlan is the full operation list of a library workload: the rows and,
// per round, the seeded order they run in.
type libPlan struct {
	Workload string
	Rows     []string // row names, for the determinism check and the report
	Rounds   [][]int  // Rounds[r] is a permutation of row indices
	rows     []row
}

// scaleCount scales a frozen count by seconds/nominalSeconds, at least 1.
func scaleCount(n int, seconds float64) int {
	s := int(float64(n)*seconds/nominalSeconds + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// newLibPlan builds a library workload's plan at the scale seconds selects.
// maxRows > 0 down-scales the row set too (tests only).
func newLibPlan(workload string, seed int64, seconds float64, maxRows int) *libPlan {
	p := &libPlan{Workload: workload}
	rounds := scaleCount(networkRounds, seconds)
	p.rows = networkRows(maxRows)
	if workload == wlColdLayers {
		rounds = scaleCount(coldRounds, seconds)
		p.rows = coldRows(maxRows)
	}
	for _, r := range p.rows {
		p.Rows = append(p.Rows, r.name)
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		p.Rounds = append(p.Rounds, rng.Perm(len(p.rows)))
	}
	return p
}

// ---- service workloads ----

// Job kinds of the service mix.
const (
	kindHot     = "hot"
	kindCold    = "cold"
	kindNetwork = "network"
)

// svcJob is one submission of the service workloads.
type svcJob struct {
	Kind string               `json:"kind"`
	Row  string               `json:"row"` // repeated jobs share a row name; cold jobs are all "cold"
	Req  server.SubmitRequest `json:"req"`
}

// svcPlan is the full job sequence of a service workload.
type svcPlan struct {
	Workload string
	Hot      []svcJob // pre-submitted in setup so their engine entries are warm
	Jobs     []svcJob
}

// hotSet is eight ResNet-18 layers on conventional and simba: the problems
// a compiler resubmits while it iterates on one model.
func hotSet() []svcJob {
	var hot []svcJob
	for _, m := range []string{"conventional", "simba"} {
		for _, li := range []int{1, 4, 7, 10} { // conv2_x, conv3_x, conv4_x, conv5_x
			cs := workloads.ResNet18[li]
			hot = append(hot, svcJob{
				Kind: kindHot, Row: "resnet18/" + cs.Name + "@" + m,
				Req: server.SubmitRequest{
					Tenant: "compiler", Arch: m,
					Conv: &server.ConvSpec{N: evalBatch, K: cs.K, C: cs.C, P: cs.P, Q: cs.Q, R: cs.R, S: cs.S,
						StrideH: cs.StrideH, StrideW: cs.StrideW},
				},
			})
		}
	}
	return hot
}

// coldGrid enumerates distinct conv problems no other job of the run uses.
// The grid is fixed and walked in a fixed order, so every seed submits the
// same n cold problems (only their positions differ) and the cold share of
// the work is the same on every run.
func coldGrid(n int) []svcJob {
	ks := []int{24, 40, 48, 80, 96, 160, 192, 320}
	cs := []int{16, 24, 48, 80, 112, 176}
	grids := []int{7, 10, 14, 20, 28}
	rs := []int{1, 3}
	var out []svcJob
	// Walk the slowest-varying axis last so any prefix spans every K, C
	// and grid: a scaled-down run keeps the same spread of problem sizes.
	for _, r := range rs {
		for gi := range grids {
			for ci := range cs {
				for ki := range ks {
					if len(out) == n {
						return out
					}
					m := "conventional"
					if (ki+ci+gi)%2 == 1 {
						m = "simba"
					}
					g := grids[(gi+ki)%len(grids)]
					out = append(out, svcJob{
						Kind: kindCold, Row: "cold",
						Req: server.SubmitRequest{
							Tenant: "explorer", Arch: m,
							Conv: &server.ConvSpec{N: 8, K: ks[ki], C: cs[ci], P: g, Q: g, R: r, S: r},
						},
					})
				}
			}
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("bench: cold grid holds %d problems, %d wanted", len(out), n))
	}
	return out
}

func networkJob() svcJob {
	return svcJob{
		Kind: kindNetwork, Row: "transformer@conventional/fused",
		Req: server.SubmitRequest{
			Tenant: "compiler", Arch: "conventional",
			Network: &server.NetworkSpec{Preset: "transformer", Fused: true},
		},
	}
}

// newSvcPlan builds the job sequence: 70 % hot-set jobs spread evenly over
// the eight hot rows, 20 % never-repeated cold conv problems, 10 %
// network-form jobs, in an order drawn from seed. The multiset of jobs
// depends only on n.
func newSvcPlan(workload string, seed int64, n int) *svcPlan {
	p := &svcPlan{Workload: workload, Hot: hotSet()}
	nCold := n / 5
	nNet := n / 10
	nHot := n - nCold - nNet
	for i := 0; i < nHot; i++ {
		p.Jobs = append(p.Jobs, p.Hot[i%len(p.Hot)])
	}
	p.Jobs = append(p.Jobs, coldGrid(nCold)...)
	for i := 0; i < nNet; i++ {
		p.Jobs = append(p.Jobs, networkJob())
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.Jobs), func(i, j int) { p.Jobs[i], p.Jobs[j] = p.Jobs[j], p.Jobs[i] })
	return p
}

// jobWorkload rebuilds the workload and architecture the server derives
// from a conv- or workload-form submission, for decoding and re-scoring its
// mapping.
func jobWorkload(req *server.SubmitRequest) (*tensor.Workload, *arch.Arch) {
	if len(req.Workload) > 0 {
		w, err := serde.DecodeWorkload(req.Workload)
		if err != nil {
			panic(err) // the harness encoded it
		}
		return w, machine(req.Arch)
	}
	c := req.Conv
	sh, sw := c.StrideH, c.StrideW
	if sh <= 0 {
		sh = 1
	}
	if sw <= 0 {
		sw = 1
	}
	return workloads.Conv2D("conv", c.N, c.K, c.C, c.P, c.Q, c.R, c.S, sh, sw), machine(req.Arch)
}
