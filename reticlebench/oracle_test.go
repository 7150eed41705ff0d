package main

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/asm"
	"reticle/internal/cache"
	"reticle/internal/eval"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/server"
)

const maccSrc = `def macc(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
}`

// served compiles src on a fresh default server and returns its wire
// artifact.
func served(t *testing.T, family, src string) (*pipeline.Config, server.ArtifactJSON) {
	t.Helper()
	cfg, err := configFor(family)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&runner{}).serve(srv, "/compile", compileBody(family, src), "served", "test")
	if err != nil {
		t.Fatal(err)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		t.Fatal(err)
	}
	return cfg, cr.Artifact
}

func programSrc(t *testing.T, name string, size int) string {
	t.Helper()
	f, err := eval.Program(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return f.String()
}

func TestChecksAcceptTrueArtifacts(t *testing.T) {
	for _, fam := range families {
		for _, src := range []string{maccSrc, programSrc(t, "fsm", 3), programSrc(t, "tensordot", 3)} {
			_, a := served(t, fam, src)
			if err := checkArtifact(fam, src, a, 7); err != nil {
				t.Errorf("%s: %v", fam, err)
			}
		}
	}
}

var locRE = regexp.MustCompile(`@(lut|dsp)\((\d+), (\d+)\)`)

func TestPlacementCheckRejectsOverlap(t *testing.T) {
	cfg, a := served(t, "ultrascale", programSrc(t, "tensordot", 3))
	locs := locRE.FindAllString(a.Placed, -1)
	if len(locs) < 2 {
		t.Fatalf("want two placed instructions, got %v", locs)
	}
	// Put the first instruction on the second one's slot.
	corrupt := strings.Replace(a.Placed, locs[0], locs[1], 1)
	af, _ := asm.Parse(a.Asm)
	placed, err := asm.Parse(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlacement(cfg, af, placed); err == nil {
		t.Fatal("place.Verify accepted two instructions on one slot")
	}
}

func TestAreaCheckRejectsWrongCount(t *testing.T) {
	cfg, a := served(t, "ultrascale", programSrc(t, "fsm", 3))
	af, _ := asm.Parse(a.Asm)
	for _, bump := range []func(*server.ArtifactJSON){
		func(a *server.ArtifactJSON) { a.LUTs++ },
		func(a *server.ArtifactJSON) { a.DSPs++ },
		func(a *server.ArtifactJSON) { a.FFs++ },
		func(a *server.ArtifactJSON) { a.Carries++ },
	} {
		b := a
		bump(&b)
		if err := checkArea(cfg, af, b); err == nil {
			t.Errorf("area check accepted %d/%d/%d/%d", b.LUTs, b.DSPs, b.FFs, b.Carries)
		}
	}
}

func TestVerilogCheckRejectsTruncatedModule(t *testing.T) {
	_, a := served(t, "agilex", maccSrc)
	if err := checkVerilog(a.Verilog[:len(a.Verilog)/2]); err == nil {
		t.Fatal("truncated Verilog parsed")
	}
}

func TestCosimRejectsWrongSemantics(t *testing.T) {
	cfg, a := served(t, "ultrascale", maccSrc)
	f, _ := ir.Parse(maccSrc)
	// a*b+c becomes c*b+a: same resources, different function.
	corrupt := strings.Replace(a.Placed, "(a, b, c, en)", "(c, b, a, en)", 1)
	if corrupt == a.Placed {
		t.Fatalf("unexpected placed program:\n%s", a.Placed)
	}
	placed, err := asm.Parse(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCosim(cfg, f, placed, 7); err == nil {
		t.Fatal("co-simulation accepted a swapped operand")
	}
}

func TestUncachedCheckRejectsChangedField(t *testing.T) {
	cfg, a := served(t, "ultrascale", programSrc(t, "fsm", 3))
	f, _ := ir.Parse(programSrc(t, "fsm", 3))
	for name, corrupt := range map[string]func(*server.ArtifactJSON){
		"critical_ns":    func(a *server.ArtifactJSON) { a.CriticalNs += 0.01 },
		"verilog":        func(a *server.ArtifactJSON) { a.Verilog += "\n" },
		"cascade_chains": func(a *server.ArtifactJSON) { a.CascadeChains++ },
	} {
		b := a
		corrupt(&b)
		if err := checkUncached(cfg, f, b); err == nil {
			t.Errorf("%s: cache-free comparison accepted a changed artifact", name)
		}
	}
}

func variant(id string, ns float64, luts, dsps int) server.ExploreVariant {
	return server.ExploreVariant{ID: id, OK: true, Metrics: &server.ExploreMetrics{CriticalNs: ns, Luts: luts, Dsps: dsps}}
}

func TestFrontierCheck(t *testing.T) {
	er := exploreFields{Variants: []server.ExploreVariant{
		variant("base", 1.5, 0, 4),
		variant("bind=lut", 2.5, 40, 0),
		variant("slow", 3.0, 50, 4), // dominated by both
		{ID: "bind=lut+vec", OK: false, ErrorCode: "select_failed"},
	}}
	for _, v := range er.Variants[:2] {
		er.Frontier = append(er.Frontier, server.ExploreFrontierPoint{ID: v.ID, Metrics: *v.Metrics})
	}
	if err := checkFrontier(er); err != nil {
		t.Fatalf("true frontier rejected: %v", err)
	}
	missing := er
	missing.Frontier = er.Frontier[:1]
	if err := checkFrontier(missing); err == nil {
		t.Error("frontier missing a point accepted")
	}
	dominated := er
	dominated.Frontier = append(append([]server.ExploreFrontierPoint(nil), er.Frontier...),
		server.ExploreFrontierPoint{ID: "slow", Metrics: *er.Variants[2].Metrics})
	if err := checkFrontier(dominated); err == nil {
		t.Error("frontier holding a dominated point accepted")
	}
	swapped := er
	swapped.Frontier = []server.ExploreFrontierPoint{er.Frontier[1], er.Frontier[0]}
	if err := checkFrontier(swapped); err == nil {
		t.Error("frontier out of canonical order accepted")
	}
}

func TestClassifyVariantsKnownFaultOnly(t *testing.T) {
	vec, _ := ir.Parse(programSrc(t, "tensoradd", 64))
	scalar, _ := ir.Parse(maccSrc)
	known := exploreFields{Partial: true, Variants: []server.ExploreVariant{
		variant("base", 1, 0, 1),
		{ID: "bind=lut", ErrorCode: "select_failed"},
	}}
	if n, f, err := classifyVariants(vec, known); err != nil || n != 2 || f != 1 {
		t.Fatalf("known fault: attempted=%d failed=%d err=%v", n, f, err)
	}
	if _, _, err := classifyVariants(scalar, known); err == nil {
		t.Error("bind=lut failure on a scalar kernel accepted as the known fault")
	}
	other := known
	other.Variants = []server.ExploreVariant{variant("base", 1, 0, 1), {ID: "nocascade", ErrorCode: "placement_failed"}}
	if _, _, err := classifyVariants(vec, other); err == nil {
		t.Error("unrelated variant failure accepted")
	}
	unmarked := known
	unmarked.Partial = false
	if _, _, err := classifyVariants(vec, unmarked); err == nil {
		t.Error("failed variant in a sweep not marked partial accepted")
	}
}

func TestEditsKeepTheirCacheTier(t *testing.T) {
	cfg, _ := configFor("ultrascale")
	f, _ := ir.Parse(programSrc(t, "fsm", 3))
	renamed := renameTemps(f, "_r1")
	if renamed.String() == f.String() {
		t.Fatal("rename changed nothing")
	}
	if cache.KeyFor(cfg, renamed) != cache.KeyFor(cfg, f) {
		t.Error("renamed kernel has a different artifact key")
	}
	edited := shiftValues(f, 1)
	if cache.KeyFor(cfg, edited) == cache.KeyFor(cfg, f) {
		t.Error("value edit kept the artifact key")
	}
	if pipeline.HintKeyFor(cfg, edited) != pipeline.HintKeyFor(cfg, f) {
		t.Error("value edit changed the placement hint key")
	}
}

// TestTracedServerMatchesServer drives the same requests through the
// default server and a traced one, compares every reply's digest, and
// checks that the seam calls were turned into the layers they bracket.
func TestTracedServerMatchesServer(t *testing.T) {
	srv, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := tr.newHandler()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.start(); err != nil {
		t.Fatal(err)
	}
	f, _ := ir.Parse(programSrc(t, "fsm", 3))
	reqs := []struct{ path, family, src string }{
		{"/compile", "ultrascale", f.String()},
		{"/compile", "ultrascale", f.String()},
		{"/compile", "ultrascale", renameTemps(f, "_x").String()},
		{"/compile", "ultrascale", shiftValues(f, 3).String()},
		{"/explore", "ultrascale", programSrc(t, "tensoradd", 64)},
		{"/explore", "agilex", maccSrc},
	}
	var got [2][][32]byte
	for i, h := range []http.Handler{srv, traced} {
		r := &runner{digests: [][32]byte{}}
		if i == 1 {
			r.after = tr.finish
		}
		for _, q := range reqs {
			body := compileBody(q.family, q.src)
			if q.path == "/explore" {
				body = exploreBody(q.family, q.src)
			}
			if _, err := r.serve(h, q.path, body, q.path, "test"); err != nil {
				t.Fatal(err)
			}
		}
		got[i] = r.digests
	}
	for i := range reqs {
		if got[0][i] != got[1][i] {
			t.Errorf("request %d (%s %s): traced reply differs from the server's", i, reqs[i].path, reqs[i].family)
		}
	}
	d, err := tr.stop()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ops != len(reqs) {
		t.Errorf("traced %d requests, want %d", tr.ops, len(reqs))
	}
	for _, l := range []string{"server.front", "server.encode", "stagecache.lookup", "stagecache.store",
		"stagecache.key", "stagecache.decode", "isel.select", "cascade.apply", "ir.structural_hash",
		"hintcache.lookup", "place.place", "place.verify", "codegen.generate"} {
		if tr.self[l] <= 0 {
			t.Errorf("no time charged to %s", l)
		}
	}
	// The value edit keeps the placement problem, so its hint is adopted.
	if tr.counts["hintcache.adopted"] < 1 {
		t.Error("no hint adoption seen")
	}
	if d.stages.TimingNS <= 0 || d.steps <= 0 || d.hits < 1 {
		t.Errorf("server counters did not move: %+v", d)
	}
	if float64(d.stages.TimingNS) >= float64(tr.self["codegen.generate"]) {
		t.Error("timing analysis not inside the output-stage gap")
	}
	if len(tr.sweeps) != 2 || tr.counts["explore.variants"] == 0 {
		t.Errorf("sweeps recorded: %d", len(tr.sweeps))
	}
}
