package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"reticle/internal/explore"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/place"
	"reticle/internal/server"
	"reticle/internal/stagecache"
)

// The traced run drives the real server, built as reticle.NewServer
// builds it, except that its stage memo and placement hint store are
// handed in through the family configs (pipeline.StageCache and
// pipeline.HintCache) wrapped in timers. Each request carries its trace
// in its context, which the server threads into pipeline.Compile and
// into every explore variant's compile, so each call into the two
// stores is charged to its request. The reply writer is the third seam:
// the server encodes a reply between WriteHeader and Write.
//
// Between two consecutive seam calls of one compile, pipeline.Compile
// does one fixed piece of work, so those gaps are layer spans as well
// (see gapLayer). What no seam brackets stays inside server.front (the
// request's decode, the exact-text and artifact LRUs, ir.Parse and the
// canonical hash, up to the first stage-memo call) or outside every
// span (the artifact's wire rendering and, on /explore, scoring and the
// frontier), and shows in trace.coverage_ratio.

// Seam call kinds. Both hint-store calls are charged to one layer.
const (
	evLookup     = "stagecache.lookup"
	evStore      = "stagecache.store"
	evHintLookup = "hintcache.lookup"
	evHintRecord = "hintcache.record"
)

// event is one timed call into a wrapped store.
type event struct {
	kind, stage string
	hit         bool   // lookups: the store answered
	payload     []byte // stores: what the pipeline handed over
	start, end  time.Time
}

func (e event) layer() string {
	if e.kind == evHintRecord {
		return evHintLookup
	}
	return e.kind
}

// opTrace is one request's record: its seam calls in call order and the
// reply's encode window.
type opTrace struct {
	mu              sync.Mutex
	events          []event
	start, end      time.Time
	header, written time.Time // WriteHeader, and the end of the last Write
}

func (o *opTrace) add(e event) {
	o.mu.Lock()
	o.events = append(o.events, e)
	o.mu.Unlock()
}

type opKey struct{}

func opOf(ctx context.Context) *opTrace {
	o, _ := ctx.Value(opKey{}).(*opTrace)
	return o
}

// tracedStages is the stage memo with every call from a traced request
// timed.
type tracedStages struct{ inner *stagecache.Store }

func (s tracedStages) Lookup(ctx context.Context, stage, key string) ([]byte, bool) {
	o := opOf(ctx)
	if o == nil {
		return s.inner.Lookup(ctx, stage, key)
	}
	t0 := time.Now()
	raw, ok := s.inner.Lookup(ctx, stage, key)
	o.add(event{kind: evLookup, stage: stage, hit: ok, start: t0, end: time.Now()})
	return raw, ok
}

func (s tracedStages) Store(ctx context.Context, stage, key string, payload []byte) {
	o := opOf(ctx)
	if o == nil {
		s.inner.Store(ctx, stage, key, payload)
		return
	}
	t0 := time.Now()
	s.inner.Store(ctx, stage, key, payload)
	o.add(event{kind: evStore, stage: stage, payload: payload, start: t0, end: time.Now()})
}

// tracedHints is the placement hint store, timed the same way.
type tracedHints struct{ inner *hintcache.Store }

func (h tracedHints) Lookup(ctx context.Context, key string) *place.Anchors {
	o := opOf(ctx)
	if o == nil {
		return h.inner.Lookup(ctx, key)
	}
	t0 := time.Now()
	a := h.inner.Lookup(ctx, key)
	o.add(event{kind: evHintLookup, hit: a != nil, start: t0, end: time.Now()})
	return a
}

func (h tracedHints) Record(ctx context.Context, key string, a *place.Anchors) {
	o := opOf(ctx)
	if o == nil {
		h.inner.Record(ctx, key, a)
		return
	}
	t0 := time.Now()
	h.inner.Record(ctx, key, a)
	o.add(event{kind: evHintRecord, start: t0, end: time.Now()})
}

// timedWriter notes when the server starts and ends writing its reply.
type timedWriter struct {
	http.ResponseWriter
	o *opTrace
}

func (w timedWriter) WriteHeader(code int) {
	w.o.header = time.Now()
	w.ResponseWriter.WriteHeader(code)
}

func (w timedWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.o.written = time.Now()
	return n, err
}

// tracedServer is one server of the traced run.
type tracedServer struct {
	t    *tracer
	srv  *server.Server
	base serverCounts // the server's counters when its traced requests began
}

// newTracedServer builds a server with the tiers a default
// reticle.NewServer wires (artifact LRU, exact-text memo, hint store and
// stage memo, default sizes), the last two wrapped.
func newTracedServer(t *tracer) (*tracedServer, error) {
	stages := tracedStages{stagecache.New(0)}
	hints := tracedHints{hintcache.New(0)}
	configs := map[string]*pipeline.Config{}
	for _, fam := range families {
		cfg, err := configFor(fam)
		if err != nil {
			return nil, err
		}
		c := *cfg
		c.StageCache, c.HintCache = stages, hints
		configs[fam] = &c
	}
	srv, err := server.New(server.Options{DefaultFamily: "ultrascale", NoHintCache: true, NoStageCache: true}, configs)
	if err != nil {
		return nil, err
	}
	return &tracedServer{t: t, srv: srv}, nil
}

func (s *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.t.on {
		s.srv.ServeHTTP(w, r)
		return
	}
	o := &opTrace{start: time.Now()}
	s.srv.ServeHTTP(timedWriter{w, o}, r.WithContext(context.WithValue(r.Context(), opKey{}, o)))
	o.end = time.Now()
	s.t.last = o
}

// serverCounts are the /stats counters the traced run reads: the
// pipeline's own stage times (Artifact.Stages, summed), the placement
// solver counters and the artifact LRU's.
type serverCounts struct {
	stages                  server.StagesJSON
	steps, probes           int
	hits, misses, evictions uint64
}

func countsOf(s *server.Server) (serverCounts, error) {
	req, err := http.NewRequest(http.MethodGet, "/stats", nil)
	if err != nil {
		return serverCounts{}, err
	}
	rec := &recorder{}
	s.ServeHTTP(rec, req)
	var st server.StatsResponse
	if err := json.Unmarshal(rec.body.Bytes(), &st); err != nil {
		return serverCounts{}, fmt.Errorf("/stats: %w", err)
	}
	return serverCounts{stages: st.Stages, steps: st.Place.SolverSteps, probes: st.Place.ShrinkProbes,
		hits: st.Cache.Hits, misses: st.Cache.Misses, evictions: st.Cache.Evictions}, nil
}

// add returns a + (b - base): the counters one server moved since base.
func (a serverCounts) add(b, base serverCounts) serverCounts {
	a.stages.SelectNS += b.stages.SelectNS - base.stages.SelectNS
	a.stages.CascadeNS += b.stages.CascadeNS - base.stages.CascadeNS
	a.stages.PlaceNS += b.stages.PlaceNS - base.stages.PlaceNS
	a.stages.CodegenNS += b.stages.CodegenNS - base.stages.CodegenNS
	a.stages.TimingNS += b.stages.TimingNS - base.stages.TimingNS
	a.steps += b.steps - base.steps
	a.probes += b.probes - base.probes
	a.hits += b.hits - base.hits
	a.misses += b.misses - base.misses
	a.evictions += b.evictions - base.evictions
	return a
}

func (a serverCounts) stageNS() int64 {
	s := a.stages
	return s.SelectNS + s.CascadeNS + s.PlaceNS + s.CodegenNS + s.TimingNS
}

// stageLayer names what a stage does between its memo miss and its
// store: the stage itself and the printing of its result for the memo.
// The output stage's gap holds codegen.Generate, timing.Analyze (taken
// out again from the pipeline's own stage times) and Module.String; no
// seam separates the rendering.
var stageLayer = map[string]string{
	pipeline.StageSelect:  "isel.select",
	pipeline.StageCascade: "cascade.apply",
	pipeline.StageOutput:  "codegen.generate",
}

// gapLayer names the work pipeline.Compile does between two consecutive
// seam calls a and b of one compile, or "" where the gap holds more than
// one layer. Each stage consults the memo, recomputes on a miss and
// stores; placement looks up the hint store (under the structural key)
// before solving and records after.
func gapLayer(a, b event) string {
	switch {
	case a.kind == evLookup && !a.hit && b.kind == evStore && a.stage == b.stage:
		return stageLayer[a.stage]
	case a.kind == evLookup && !a.hit && a.stage == pipeline.StagePlace && b.kind == evHintLookup:
		return "ir.structural_hash" // pipeline.HintKeyFor
	case a.kind == evHintLookup && (b.kind == evHintRecord || b.kind == evStore && b.stage == pipeline.StagePlace):
		return "place.place"
	case a.kind == evLookup && a.hit && b.kind == evLookup && b.stage != pipeline.StageSelect:
		if a.stage == pipeline.StagePlace {
			return "place.verify" // decode of the memoized layout, place.Verify, the output key
		}
		if a.stage != pipeline.StageOutput {
			return "stagecache.decode" // decode of the memoized assembly, the next stage's key
		}
	case a.kind == evStore && b.kind == evLookup && b.stage != pipeline.StageSelect:
		return "stagecache.key" // the next stage's key: its input re-printed and hashed
	}
	return ""
}

// span is one layer's share of one request; parent is the request's
// own span (id == op), whose parent is 0.
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Time
}

// sweepRecord is one /explore request, kept for the two explore layers
// no seam reaches.
type sweepRecord struct {
	f      *ir.Func
	max    int
	points []explore.Point
}

// tracer folds every traced request into layer totals and counters.
type tracer struct {
	on     bool
	last   *opTrace // the request just served, until finish takes it
	ops    int
	spans  []span
	self   map[string]time.Duration
	counts map[string]float64
	cover  float64 // sum over requests of the share their spans cover
	sweeps []sweepRecord

	cur  *tracedServer
	done serverCounts // counters of the servers already retired
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, counts: map[string]float64{}}
}

// newHandler retires the current server, folding in its counters, and
// builds the next one; the retired server is not kept.
func (t *tracer) newHandler() (http.Handler, error) {
	if err := t.retire(); err != nil {
		return nil, err
	}
	s, err := newTracedServer(t)
	if err != nil {
		return nil, err
	}
	t.cur = s
	return s, nil
}

func (t *tracer) retire() error {
	if t.cur == nil || !t.on {
		return nil
	}
	c, err := countsOf(t.cur.srv)
	if err != nil {
		return err
	}
	t.done = t.done.add(c, t.cur.base)
	t.cur = nil
	return nil
}

func (t *tracer) start() error {
	t.on = true
	if t.cur == nil {
		return nil
	}
	c, err := countsOf(t.cur.srv)
	t.cur.base = c
	return err
}

// stop ends tracing and returns the counters the traced requests moved.
func (t *tracer) stop() (serverCounts, error) {
	err := t.retire()
	t.on = false
	return t.done, err
}

// finish folds the request just served into the totals. It runs after
// the request's clock has stopped.
func (t *tracer) finish(path string, body, resp []byte) error {
	o := t.last
	if o == nil {
		return nil
	}
	t.last = nil
	t.ops++
	op := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: op, op: op, name: "op", start: o.start, end: o.end})
	var mine []span
	add := func(name string, a, b time.Time) {
		if !a.IsZero() && b.After(a) {
			mine = append(mine, span{parent: op, op: op, name: name, start: a, end: b})
		}
	}
	sort.SliceStable(o.events, func(i, j int) bool { return o.events[i].start.Before(o.events[j].start) })
	front := o.header
	if len(o.events) > 0 {
		front = o.events[0].start
	}
	add("server.front", o.start, front)
	for i, e := range o.events {
		add(e.layer(), e.start, e.end)
		var next event
		if i+1 < len(o.events) {
			next = o.events[i+1]
			if l := gapLayer(e, next); l != "" {
				add(l, e.end, next.start)
			}
		}
		if err := t.count(e, next); err != nil {
			return err
		}
	}
	add("server.encode", o.header, o.written)

	for i := range mine {
		mine[i].id = op + int64(i) + 1
		t.self[mine[i].name] += mine[i].end.Sub(mine[i].start)
	}
	t.spans = append(t.spans, mine...)
	if d := o.end.Sub(o.start); d > 0 {
		t.cover += float64(covered(mine, o.start, o.end)) / float64(d)
	}
	if path == "/explore" {
		return t.sweep(body, resp)
	}
	return nil
}

// count adds the counters one seam call shows; next is the call after
// it in the same request (zero at the end).
func (t *tracer) count(e, next event) error {
	switch e.kind {
	case evLookup:
		t.counts["stagecache.lookups"]++
		if e.hit {
			t.counts["stagecache.hits"]++
		}
	case evHintLookup:
		t.counts["hintcache.lookups"]++
		// Adopted anchors go straight to the memo store; a cold solve
		// (or a revalidation failure) records fresh anchors first.
		if e.hit && next.kind == evStore && next.stage == pipeline.StagePlace {
			t.counts["hintcache.adopted"]++
		}
	case evStore:
		t.counts["stagecache.bytes"] += float64(len(e.payload))
		switch e.stage {
		case pipeline.StageSelect:
			// asm.Func.String: a header line, one line per instruction, "}".
			t.counts["isel.asm_instrs"] += float64(bytes.Count(e.payload, []byte{'\n'}) - 2)
		case pipeline.StageCascade:
			var c struct {
				Chains int `json:"chains"`
			}
			if err := json.Unmarshal(e.payload, &c); err != nil {
				return fmt.Errorf("cascade memo payload: %w", err)
			}
			t.counts["cascade.chains"] += float64(c.Chains)
		case pipeline.StageOutput:
			var out struct {
				Verilog string `json:"verilog"`
			}
			if err := json.Unmarshal(e.payload, &out); err != nil {
				return fmt.Errorf("output memo payload: %w", err)
			}
			t.counts["verilog.bytes"] += float64(len(out.Verilog))
		}
	}
	return nil
}

// sweep counts one /explore reply and keeps the sweep's input and
// frontier candidates (the first 256 sweeps).
func (t *tracer) sweep(body, resp []byte) error {
	var req server.ExploreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var er server.ExploreResponse
	if err := json.Unmarshal(resp, &er); err != nil {
		return err
	}
	t.counts["explore.sweeps"]++
	t.counts["explore.variants"] += float64(er.Stats.Variants)
	t.counts["explore.wall_ns"] += float64(er.Stats.WallNS) * float64(max(req.Jobs, 1))
	if len(t.sweeps) >= 256 {
		return nil
	}
	f, err := ir.Parse(req.IR)
	if err != nil {
		return err
	}
	n := req.MaxVariants
	if n == 0 {
		n = explore.DefaultMaxVariants
	}
	rec := sweepRecord{f: f, max: min(n, explore.HardMaxVariants)}
	for _, v := range er.Variants {
		if v.OK && !v.Degraded && v.Metrics != nil {
			m := explore.Metrics{CriticalNs: v.Metrics.CriticalNs, Luts: v.Metrics.Luts,
				Dsps: v.Metrics.Dsps, Carries: v.Metrics.Carries}
			rec.points = append(rec.points, explore.Point{ID: v.ID, Objectives: m.Objectives()})
		}
	}
	t.sweeps = append(t.sweeps, rec)
	return nil
}

// sweepTimings times the two explore layers explore.Run calls
// internally, which no seam reaches from outside: the variant
// enumeration and the frontier over the successful variants. Each sweep
// makes exactly one call to each; they are replayed on the recorded
// sweeps after the traced passes, outside any request.
func (t *tracer) sweepTimings() (enumMS, frontierUS float64) {
	if len(t.sweeps) == 0 {
		return 0, 0
	}
	var enum, front time.Duration
	for _, r := range t.sweeps {
		t0 := time.Now()
		if _, err := explore.Enumerate(r.f, r.max); err != nil {
			continue
		}
		enum += time.Since(t0)
		t0 = time.Now()
		explore.ParetoFrontier(r.points)
		front += time.Since(t0)
	}
	n := float64(len(t.sweeps))
	return float64(enum.Nanoseconds()) / 1e6 / n, float64(front.Nanoseconds()) / 1e3 / n
}

// covered is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(ss []span, lo, hi time.Time) time.Duration {
	iv := make([][2]time.Time, 0, len(ss))
	for _, s := range ss {
		a, b := s.start, s.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
		} else if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// writeSpans writes the recorded spans, one JSON object per line, with
// times in nanoseconds from the first span's start.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var base time.Time
	for i, s := range spans {
		if i == 0 || s.start.Before(base) {
			base = s.start
		}
	}
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Op     int64  `json:"op"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, s.op, s.name, s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
