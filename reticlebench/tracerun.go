package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// runTraced is the layer-by-layer run. It alternates whole passes of
// the workload on the default server, untraced, with the same passes on
// traced servers (trace.go), so both see the same process state, until
// the time is spent. Every traced reply must equal the untraced one. It
// reports the per-layer metrics and the tracing overhead: the traced
// requests' process CPU time over the untraced ones' (wall time, which
// tracks host steal here, is printed beside it).
func runTraced(name string, e *env, seconds float64, spanFile string) (result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return result{}, err
	}
	if err := w.setup(e); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	t := newTracer()
	te := *e
	te.newHandler = func() (http.Handler, error) { return t.newHandler() }
	wt, _ := newWorkload(name)
	if err := wt.setup(&te); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	ref := &runner{digests: [][32]byte{}}
	traced := &runner{digests: [][32]byte{}, after: t.finish}
	if err := t.start(); err != nil {
		return result{}, err
	}
	var win window // the untraced passes only
	start := time.Now()
	n := 0
	for {
		pw, err := measure(func() error { return w.pass(ref, n) })
		if err != nil {
			return failed(len(ref.ops)), err
		}
		win.add(pw)
		runtime.GC()
		if err := wt.pass(traced, n); err != nil {
			return failed(len(ref.ops)), fmt.Errorf("traced run: %w", err)
		}
		runtime.GC()
		n++
		if (w.maxPasses() > 0 && n >= w.maxPasses()) || time.Since(start).Seconds() >= seconds {
			break
		}
	}
	d, err := t.stop()
	if err != nil {
		return failed(len(ref.ops)), err
	}

	if len(traced.digests) != len(ref.digests) {
		return failed(len(ref.ops)), fmt.Errorf("traced run answered %d requests, untraced %d", len(traced.digests), len(ref.digests))
	}
	for i := range ref.digests {
		if traced.digests[i] != ref.digests[i] {
			return failed(len(ref.ops)), fmt.Errorf("traced reply %d (%s) differs from the server's", i, traced.ops[i].class)
		}
	}
	if err := wt.check(); err != nil {
		return failed(len(ref.ops)), fmt.Errorf("oracle (traced run): %w", err)
	}
	if spanFile != "" {
		if err := writeSpans(spanFile, t.spans); err != nil {
			return failed(len(ref.ops)), err
		}
	}

	var refWall, trWall, refCPU, trCPU time.Duration
	for i := range ref.ops {
		refWall += ref.ops[i].wall
		trWall += traced.ops[i].wall
		refCPU += ref.ops[i].cpu
		trCPU += traced.ops[i].cpu
	}
	overhead := ratio(trCPU.Seconds(), refCPU.Seconds())
	ops := t.ops
	us := func(layer string) float64 { return perOp(float64(t.self[layer].Nanoseconds())/1e3, ops) }
	cnt := func(name string) float64 { return perOp(t.counts[name], ops) }
	timingNS := float64(d.stages.TimingNS)
	// The output-stage gap holds timing.Analyze too; the pipeline's own
	// stage clock gives its share exactly.
	codegenUS := perOp((float64(t.self["codegen.generate"].Nanoseconds())-timingNS)/1e3, ops)
	sweeps := int(t.counts["explore.sweeps"])
	enumMS, frontierUS := t.sweepTimings()

	fmt.Printf("workload=%s seed=%d passes=%d requests=%d spans=%d trace=1\n", name, e.seed, n, ops, len(t.spans))
	fmt.Printf("noise (untraced passes): wall_s=%.3f cpu_s=%.3f steal_s=%.2f gc_cycles=%d\n",
		win.wall.Seconds(), win.cpu.Seconds(), win.steal, win.gcCycles)
	fmt.Printf("faithfulness: %d traced replies byte-identical to the untraced server's; overhead %.3fx request CPU time, %.3fx wall time\n",
		len(ref.digests), overhead, ratio(trWall.Seconds(), refWall.Seconds()))
	layers := make([]string, 0, len(t.self))
	for l := range t.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("span %-22s %10.2f us/op\n", l, us(l))
	}

	refOps := len(ref.ops)
	metrics := map[string]metric{
		"server.front_us":         {us("server.front"), "us"},
		"server.encode_us":        {us("server.encode"), "us"},
		"cache.hit_ratio":         {ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio"},
		"cache.evictions":         {perOp(float64(d.evictions), ops), "count/op"},
		"ir.structural_hash_us":   {us("ir.structural_hash"), "us"},
		"hintcache.lookup_us":     {us("hintcache.lookup"), "us"},
		"hintcache.adopt_ratio":   {ratio(t.counts["hintcache.adopted"], t.counts["hintcache.lookups"]), "ratio"},
		"stagecache.lookup_us":    {us("stagecache.lookup"), "us"},
		"stagecache.key_us":       {us("stagecache.key"), "us"},
		"stagecache.decode_us":    {us("stagecache.decode"), "us"},
		"place.verify_us":         {us("place.verify"), "us"},
		"stagecache.hit_ratio":    {ratio(t.counts["stagecache.hits"], t.counts["stagecache.lookups"]), "ratio"},
		"stagecache.store_us":     {us("stagecache.store"), "us"},
		"stagecache.mb":           {cnt("stagecache.bytes") / (1 << 20), "MB/op"},
		"isel.select_ms":          {us("isel.select") / 1e3, "ms"},
		"isel.asm_instrs":         {cnt("isel.asm_instrs"), "count/op"},
		"cascade.apply_ms":        {us("cascade.apply") / 1e3, "ms"},
		"cascade.chains":          {cnt("cascade.chains"), "count/op"},
		"place.place_ms":          {us("place.place") / 1e3, "ms"},
		"place.solver_steps":      {perOp(float64(d.steps), ops), "count/op"},
		"place.shrink_probes":     {perOp(float64(d.probes), ops), "count/op"},
		"codegen.generate_ms":     {codegenUS / 1e3, "ms"},
		"verilog.kb":              {cnt("verilog.bytes") / 1024, "KB/op"},
		"timing.analyze_ms":       {perOp(timingNS/1e6, ops), "ms"},
		"explore.enumerate_ms":    {enumMS, "ms"},
		"explore.variants":        {perOp(t.counts["explore.variants"], sweeps), "count/op"},
		"explore.frontier_us":     {frontierUS, "us"},
		"batch.worker_busy_ratio": {ratio(float64(d.stageNS()), t.counts["explore.wall_ns"]), "ratio"},
		"gc.alloc_mb_per_op":      {perOp(win.allocMB, refOps), "MB"},
		"gc.cycles_per_op":        {perOp(float64(win.gcCycles), refOps), "count/op"},
		"trace.coverage_ratio":    {perOp(t.cover, ops), "ratio"},
		"trace.overhead_ratio":    {overhead, "ratio"},
	}
	attempted, failedOps := refOps, 0
	if va, vf := wt.variants(); va > 0 {
		attempted, failedOps = va, vf
	}
	return result{Correct: true, Attempted: attempted, Failed: failedOps, Metrics: metrics}, nil
}
