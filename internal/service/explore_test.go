package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
)

// TestExplorationCampaignExpansion pins the contract the client's
// frontier assembly depends on: Campaign() expands points outer and
// workloads inner, and expand() normalizes ARPT-less explore units to
// plain simulate units so they dedupe across campaign kinds.
func TestExplorationCampaignExpansion(t *testing.T) {
	req := ExplorationRequest{
		Seed:      1,
		Workloads: []string{"li", "go"},
		Grid: explore.Grid{
			L1Ports:     []int{2},
			LVCPorts:    []int{0, 2},
			ARPTEntries: []int{0, 1024},
		},
	}
	creq, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	// (2+0) collapses the ARPT dimension, (2+2) keeps both values:
	// 3 points x 2 workloads, points outer.
	wantUnits := []struct {
		name, workload string
		arpt           int
	}{
		{"(2+0)", "130.li", 0}, {"(2+0)", "099.go", 0},
		{"(2+2)", "130.li", 0}, {"(2+2)", "099.go", 0},
		{"(2+2)", "130.li", 1024}, {"(2+2)", "099.go", 1024},
	}
	if len(creq.Units) != len(wantUnits) {
		t.Fatalf("expanded %d units, want %d", len(creq.Units), len(wantUnits))
	}
	for i, w := range wantUnits {
		u := creq.Units[i]
		if u.Kind != KindExplore || u.Config == nil || u.Config.Name != w.name ||
			u.Workload != w.workload || u.ARPT != w.arpt {
			t.Errorf("unit %d = {%s %s %v arpt=%d}, want {%s %s arpt=%d}",
				i, u.Kind, u.Workload, u.Config, u.ARPT, w.name, w.workload, w.arpt)
		}
	}

	units, err := expand(creq)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		wantKind := KindExplore
		if u.ARPT == 0 {
			wantKind = KindSimulate // normalized: dedupes with plain campaigns
		}
		if u.Kind != wantKind {
			t.Errorf("unit %d (arpt=%d) expanded to kind %s, want %s", i, u.ARPT, u.Kind, wantKind)
		}
	}

	if _, err := (ExplorationRequest{Workloads: []string{"nope"},
		Grid: explore.Grid{L1Ports: []int{2}}}).Campaign(); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := (ExplorationRequest{}).Campaign(); err == nil {
		t.Error("empty grid accepted")
	}
	bad := cpu.Decoupled(2, 2)
	if _, err := expand(CampaignRequest{Units: []UnitSpec{
		{Kind: KindExplore, Workload: "li", Config: &bad, ARPT: -1}}}); err == nil {
		t.Error("negative ARPT accepted")
	}
	if _, err := expand(CampaignRequest{Units: []UnitSpec{
		{Kind: KindExplore, Workload: "li"}}}); err == nil {
		t.Error("explore unit without config accepted")
	}
}

// A frontier assembled from server results must be byte-identical to
// one searched locally over the same grid and seed — the exploration
// endpoint is a transport, not a second implementation.
func TestExploreServerMatchesLocal(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 4}, true)
	workloads := testWorkloads(t, "li")
	grid := explore.Grid{L1Ports: []int{2}, LVCPorts: []int{0, 2}, Penalties: []int{1, 4}}

	remote, err := client.Explore(0, testMaxInsts, 7, workloads, grid)
	if err != nil {
		t.Fatal(err)
	}
	remoteBytes, err := explore.Encode(remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := explore.ValidateFrontier(remoteBytes); err != nil {
		t.Errorf("server frontier fails schema: %v", err)
	}

	r := experiments.NewRunner()
	r.Workloads = workloads
	r.MaxInsts = testMaxInsts
	local, err := explore.Search(r, grid, 7)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := explore.Encode(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteBytes, localBytes) {
		t.Fatalf("server frontier differs from local:\n%s\n--- vs ---\n%s", remoteBytes, localBytes)
	}

	// The grid's ARPT-less points normalized to simulate units, so a
	// plain campaign over the same machines overlaps them completely.
	if _, err := client.SimResults(0, testMaxInsts, 7, []UnitSpec{
		{Kind: KindSimulate, Workload: "li", Config: configPtr(t, "(2+2)")},
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(svc.Registry(), "service_units_deduped_total"); got == 0 {
		t.Error("simulate campaign did not dedupe against explore units")
	}
}

func configPtr(t *testing.T, name string) *cpu.Config {
	t.Helper()
	cfg, err := ParseConfigName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &cfg
}

// TestConfigNameRoundTrip: every canonical configuration name the
// repo mints parses back to the identical Config — the name IS the
// machine, which is what lets store keys, grid shorthands and
// frontier artifacts all speak the same dialect.
func TestConfigNameRoundTrip(t *testing.T) {
	var configs []cpu.Config
	configs = append(configs, cpu.Figure8Configs()...)
	for _, pen := range []int{0, 1, 4, 16} {
		configs = append(configs, experiments.PenaltyConfig(pen))
	}
	for _, p := range []cpu.CustomParams{
		{L1Ports: 2, LVCPorts: 2, LVCSizeKB: 8},
		{L1Ports: 3, LVCPorts: 2, L1Latency: 3, Penalty: penalty(4)},
		{L1Ports: 2, LVCPorts: 2, Steer: "pattern"},
		{L1Ports: 2, LVCPorts: 2, Steer: "pchash", LVCSizeKB: 16, Penalty: penalty(8)},
		{L1Ports: 2, LVCPorts: 2, Penalty: penalty(0)},
		{L1Ports: 4, L1Latency: 1},
	} {
		cfg, err := cpu.Custom(p)
		if err != nil {
			t.Fatalf("Custom(%+v): %v", p, err)
		}
		configs = append(configs, cfg)
	}
	seen := map[string]bool{}
	for _, cfg := range configs {
		if seen[cfg.Name] {
			continue
		}
		seen[cfg.Name] = true
		back, err := ParseConfigName(cfg.Name)
		if err != nil {
			t.Errorf("ParseConfigName(%q): %v", cfg.Name, err)
			continue
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%q does not round-trip:\n got %s\nwant %s", cfg.Name, back.Key(), cfg.Key())
		}
	}
	for _, bad := range []string{
		"", "(2+2", "2+2)", "(x+2)", "(2+2,)", "(2+2,pen)", "(2+2,penx4)",
		"(2+0,lvc8K)", "(2+0,pen4)", "(2+0,region)", "(2+2,bogus)", "(2+2,pen4,pen8)",
		"(2+2,pen-1)", "(2+0,pen0)",
	} {
		if _, err := ParseConfigName(bad); err == nil {
			t.Errorf("ParseConfigName(%q) accepted", bad)
		}
	}
}

func penalty(p int) *int { return &p }

// TestExplorePenaltyZero: an explorer grid with penalty 0 simulates
// penalty 0, not the default of 1, and its point names parse back to
// the same machine.
func TestExplorePenaltyZero(t *testing.T) {
	pts, _, err := explore.Grid{L1Ports: []int{3}, LVCPorts: []int{0, 3}, Penalties: []int{0, 1}}.Enumerate(1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"(3+0)": 1, "(3+3,pen0)": 0, "(3+3)": 1}
	if len(pts) != len(want) {
		t.Fatalf("points = %v, want %v", pts, want)
	}
	for _, p := range pts {
		pen, ok := want[p.Name]
		if !ok || p.Config.MispredictPenalty != pen {
			t.Errorf("point %s has penalty %d, want %v", p.Name, p.Config.MispredictPenalty, want)
		}
		back, err := ParseConfigName(p.Name)
		if err != nil || !reflect.DeepEqual(back, p.Config) {
			t.Errorf("%s does not round-trip: %v", p.Name, err)
		}
	}
}

// A simulate unit with an ARPT size simulates that ARPT: it expands to
// an explore unit and returns what Runner.SimulateConfigARPT does, not
// the default-ARPT result under an arpt=16 key. A negative size is
// rejected on either kind.
func TestSimulateUnitHonoursARPT(t *testing.T) {
	_, client, _ := testService(t, Config{Workers: 1}, false)
	const n = 50_000
	cfg := configPtr(t, "(3+3)")
	resp, err := client.Run(CampaignRequest{MaxInsts: n, Units: []UnitSpec{
		{Kind: KindSimulate, Workload: "go", Config: cfg, ARPT: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if k := resp.Units[0].Spec.Kind; k != KindExplore {
		t.Errorf("simulate unit with arpt=16 expanded to kind %s, want %s", k, KindExplore)
	}
	got, err := decodeUnits[cpu.Result](resp, 1)
	if err != nil {
		t.Fatal(err)
	}

	r := experiments.NewRunner()
	r.MaxInsts = n
	w := testWorkloads(t, "go")[0]
	want, err := r.SimulateConfigARPT(w, 16, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	def, err := r.SimulateConfig(w, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ARPTMispredicts == def.ARPTMispredicts {
		t.Fatalf("arpt=16 and the default ARPT both mispredict %d times: the test cannot tell them apart", def.ARPTMispredicts)
	}
	// The wire carries a Result's JSON form, so that is what must agree.
	gotJSON, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("simulate unit with arpt=16: %d ARPT mispredicts, want %d (default ARPT: %d)",
			got[0].ARPTMispredicts, want.ARPTMispredicts, def.ARPTMispredicts)
	}

	for _, kind := range []string{KindSimulate, KindExplore} {
		if _, err := expand(CampaignRequest{Units: []UnitSpec{
			{Kind: kind, Workload: "go", Config: cfg, ARPT: -1}}}); err == nil {
			t.Errorf("%s unit with arpt=-1 accepted", kind)
		}
	}
}
