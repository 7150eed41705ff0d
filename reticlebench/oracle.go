package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/place"
	"reticle/internal/server"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/timing"
	"reticle/internal/verilog"
)

// cosimCycles is the length of each random co-simulation trace.
const cosimCycles = 16

var configs struct {
	once sync.Once
	byF  map[string]*pipeline.Config
	err  error
}

// configFor returns the cache-free pipeline config of a family, built
// the way reticle.NewServer builds it.
func configFor(family string) (*pipeline.Config, error) {
	configs.once.Do(func() {
		configs.byF = map[string]*pipeline.Config{}
		for _, fam := range families {
			target, dev := ultrascale.Target(), ultrascale.Device()
			variants := map[string]cascade.Variants{}
			if fam == "agilex" {
				target, dev = agilex.Target(), agilex.Device()
				for base, v := range agilex.Cascades() {
					variants[base] = cascade.Variants{Co: v.Co, Ci: v.Ci, CoCi: v.CoCi}
				}
			} else {
				for base, v := range ultrascale.Cascades() {
					variants[base] = cascade.Variants{Co: v.Co, Ci: v.Ci, CoCi: v.CoCi}
				}
			}
			lib, err := isel.NewLibrary(target)
			if err != nil {
				configs.err = err
				return
			}
			configs.byF[fam] = &pipeline.Config{Target: target, Device: dev, Lib: lib, Cascades: variants}
		}
	})
	if configs.err != nil {
		return nil, configs.err
	}
	cfg, ok := configs.byF[family]
	if !ok {
		return nil, fmt.Errorf("unknown family %q", family)
	}
	return cfg, nil
}

// checkArtifact runs every artifact oracle on one served artifact of
// the kernel whose source is src: placement, area, Verilog syntax, co-simulation against the
// IR interpreter, and equality with a compile that no cache touched.
func checkArtifact(family, src string, a server.ArtifactJSON, seed int64) error {
	cfg, err := configFor(family)
	if err != nil {
		return err
	}
	f, err := ir.Parse(src)
	if err != nil {
		return fmt.Errorf("kernel source: %w", err)
	}
	af, err := asm.Parse(a.Asm)
	if err != nil {
		return fmt.Errorf("wire asm: %w", err)
	}
	placed, err := asm.Parse(a.Placed)
	if err != nil {
		return fmt.Errorf("wire placed: %w", err)
	}
	if err := checkPlacement(cfg, af, placed); err != nil {
		return err
	}
	if err := checkArea(cfg, af, a); err != nil {
		return err
	}
	if err := checkVerilog(a.Verilog); err != nil {
		return err
	}
	if err := checkCosim(cfg, f, placed, seed); err != nil {
		return err
	}
	return checkUncached(cfg, f, a)
}

// checkPlacement: place.Verify accepts the wire placed program as a
// placement of the wire assembly on the family's device.
func checkPlacement(cfg *pipeline.Config, af, placed *asm.Func) error {
	if err := place.Verify(af, placed, cfg.Device); err != nil {
		return fmt.Errorf("place.Verify rejects the wire placement: %w", err)
	}
	return nil
}

// checkArea: the reported utilization equals timing.EstimateArea over
// the wire assembly.
func checkArea(cfg *pipeline.Config, af *asm.Func, a server.ArtifactJSON) error {
	area, err := timing.EstimateArea(af, cfg.Target)
	if err != nil {
		return fmt.Errorf("estimate area: %w", err)
	}
	if area.Luts != a.LUTs || area.Dsps != a.DSPs || area.FFs != a.FFs || area.Carries != a.Carries {
		return fmt.Errorf("area luts/dsps/ffs/carries = %d/%d/%d/%d, estimator says %d/%d/%d/%d",
			a.LUTs, a.DSPs, a.FFs, a.Carries, area.Luts, area.Dsps, area.FFs, area.Carries)
	}
	return nil
}

// checkVerilog: the emitted module parses.
func checkVerilog(src string) error {
	if _, err := verilog.ParseModule(src); err != nil {
		return fmt.Errorf("verilog does not parse: %w", err)
	}
	return nil
}

// checkCosim: the placed program, expanded through its TDL semantics,
// computes what the IR computes (Algorithm 1) on a seeded random trace.
func checkCosim(cfg *pipeline.Config, f *ir.Func, placed *asm.Func, seed int64) error {
	trace := irgen.RandomTrace(rand.New(rand.NewSource(seed)), f, cosimCycles)
	want, err := interp.Run(f, trace)
	if err != nil {
		return fmt.Errorf("reference interpreter: %w", err)
	}
	expanded, err := asm.Expand(placed, cfg.Target)
	if err != nil {
		return fmt.Errorf("expand placed program: %w", err)
	}
	got, err := interp.Run(expanded, trace)
	if err != nil {
		return fmt.Errorf("co-simulate placed program: %w", err)
	}
	if !interp.Equal(want, got) {
		return fmt.Errorf("placed program diverges from the IR interpreter on a %d-cycle trace", cosimCycles)
	}
	return nil
}

// checkUncached: everything the compiler emitted equals a compile of
// the same kernel with no cache tier wired.
func checkUncached(cfg *pipeline.Config, f *ir.Func, a server.ArtifactJSON) error {
	art, err := pipeline.Compile(context.Background(), cfg, f)
	if err != nil {
		return fmt.Errorf("cache-free compile: %w", err)
	}
	want := outputFields{
		Asm: art.Asm.String(), Placed: art.Placed.String(), Verilog: art.Verilog,
		LUTs: art.LUTs, DSPs: art.DSPs, FFs: art.FFs, Carries: art.Carries,
		CriticalNs: art.CriticalNs, FMaxMHz: art.FMaxMHz,
		CascadeChains: art.CascadeChains, Degraded: art.Degraded,
	}
	if got := outputsOf(a); got != want {
		return fmt.Errorf("served artifact differs from a cache-free compile (%s)", firstDiff(want, got))
	}
	return nil
}

func firstDiff(want, got outputFields) string {
	switch {
	case want.Asm != got.Asm:
		return "asm"
	case want.Placed != got.Placed:
		return "placed"
	case want.Verilog != got.Verilog:
		return "verilog"
	case want.CriticalNs != got.CriticalNs || want.FMaxMHz != got.FMaxMHz:
		return "timing"
	default:
		return "area or counters"
	}
}

// checkFrontier recomputes a sweep's Pareto frontier with a plain
// O(n²) dominance test over its successful, non-degraded variants, on
// (critical_ns, luts, carries, dsps), and compares it with the served
// one, in canonical order (objectives ascending, then ID).
func checkFrontier(er exploreFields) error {
	type pt struct {
		id  string
		m   server.ExploreMetrics
		obj [4]float64
	}
	var pts []pt
	for _, v := range er.Variants {
		if v.OK && !v.Degraded && v.Metrics != nil {
			m := *v.Metrics
			pts = append(pts, pt{v.ID, m, [4]float64{m.CriticalNs, float64(m.Luts), float64(m.Carries), float64(m.Dsps)}})
		}
	}
	dominates := func(p, q [4]float64) bool {
		strict := false
		for i := range p {
			if p[i] > q[i] {
				return false
			}
			if p[i] < q[i] {
				strict = true
			}
		}
		return strict
	}
	var want []pt
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if dominates(q.obj, p.obj) {
				dominated = true
				break
			}
		}
		if !dominated {
			want = append(want, p)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].obj != want[j].obj {
			for k := range want[i].obj {
				if want[i].obj[k] != want[j].obj[k] {
					return want[i].obj[k] < want[j].obj[k]
				}
			}
		}
		return want[i].id < want[j].id
	})
	if len(want) != len(er.Frontier) {
		return fmt.Errorf("frontier has %d points, dominance oracle finds %d", len(er.Frontier), len(want))
	}
	for i, p := range want {
		if got := er.Frontier[i]; got.ID != p.id || got.Metrics != p.m {
			return fmt.Errorf("frontier point %d is %s, dominance oracle says %s", i, got.ID, p.id)
		}
	}
	return nil
}
