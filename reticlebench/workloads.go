package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"

	"reticle/internal/ir"
	"reticle/internal/server"
)

// env is what every workload is handed: where the checkout is, the
// seed and a factory for fresh servers.
type env struct {
	root       string
	seed       int64
	newHandler func() (http.Handler, error)
}

// quality is what the compiled outputs are worth: the paper's Fig. 13
// axes, summed or averaged over the artifacts of one pass.
type quality struct {
	criticalNs []float64
	luts, dsps int
}

// workload is one closed-loop client. setup builds every input and the
// first server (and primes it, for warm workloads); pass runs one whole
// pass of requests, so every run repeats the same operations; check
// runs the oracles over the outputs the passes kept.
type workload interface {
	setup(e *env) error
	pass(r *runner, i int) error
	maxPasses() int // 0 means no bound
	check() error
	quality() quality
	// variants returns the explore variants attempted and the ones that
	// failed on the known enumeration fault; zero for other workloads.
	variants() (attempted, failed int)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold_compile":
		return &coldCompile{}, nil
	case "edit_loop":
		return &editLoop{}, nil
	case "explore_sweep":
		return &exploreSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_compile, edit_loop or explore_sweep)", name)
}

// ---- cold_compile ----

// coldCompile compiles the whole corpus on a fresh server every pass,
// so every cache tier misses and the five stages do all the work.
type coldCompile struct {
	e      *env
	ks     []*kernel
	bodies [][]byte
	order  []int
	h0     http.Handler
	first  []server.ArtifactJSON // pass 0, by kernel index
}

func (w *coldCompile) setup(e *env) error {
	ks, err := buildCorpus(e.root, e.seed, true)
	if err != nil {
		return err
	}
	w.e, w.ks = e, ks
	w.bodies = make([][]byte, len(ks))
	for i, k := range ks {
		w.bodies[i] = compileBody(k.family, k.src)
	}
	w.order = rand.New(rand.NewSource(e.seed)).Perm(len(ks))
	w.first = nil
	w.h0, err = e.newHandler()
	return err
}

func (w *coldCompile) maxPasses() int { return 0 }

func (w *coldCompile) pass(r *runner, i int) error {
	h, err := freshHandler(w.e, &w.h0, i)
	if err != nil {
		return err
	}
	if i == 0 {
		w.first = make([]server.ArtifactJSON, len(w.ks))
	}
	for _, idx := range w.order {
		k := w.ks[idx]
		resp, err := r.serve(h, "/compile", w.bodies[idx], k.name, "compile")
		if err != nil {
			return err
		}
		var cr server.CompileResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			return fmt.Errorf("%s: decode: %w", k.name, err)
		}
		if cr.Cache != "miss" {
			return fmt.Errorf("%s: fresh server answered cache=%q", k.name, cr.Cache)
		}
		if i == 0 {
			w.first[idx] = cr.Artifact
		} else if err := sameOutputs(k.name, w.first[idx], cr.Artifact); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
	}
	return nil
}

// freshHandler returns the server for pass i: the one set-up built for
// pass 0, handed over once and then dropped by the workload, and a new
// one after. The previous pass's server is then garbage; it is
// collected before the new one starts, outside any timed request, so no
// pass pays for its predecessor's heap, only one pass's server is live
// at a time, and the peak RSS does not depend on how many passes ran.
func freshHandler(e *env, h0 *http.Handler, i int) (http.Handler, error) {
	if i == 0 {
		h := *h0
		*h0 = nil
		return h, nil
	}
	runtime.GC()
	return e.newHandler()
}

func (w *coldCompile) check() error {
	for i, k := range w.ks {
		if err := checkArtifact(k.family, k.src, w.first[i], w.e.seed+int64(i)); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return nil
}

func (w *coldCompile) quality() quality {
	var q quality
	for i, a := range w.first {
		if !w.ks[i].seeded {
			q.add(a.CriticalNs, a.LUTs, a.DSPs)
		}
	}
	return q
}

func (w *coldCompile) variants() (int, int) { return 0, 0 }

func (q *quality) add(ns float64, luts, dsps int) {
	q.criticalNs = append(q.criticalNs, ns)
	q.luts += luts
	q.dsps += dsps
}

// sameOutputs reports a difference in anything the compiler emitted.
func sameOutputs(name string, want, got server.ArtifactJSON) error {
	if outputsOf(want) != outputsOf(got) {
		return fmt.Errorf("%s: artifact differs from the first pass's", name)
	}
	return nil
}

// ---- edit_loop ----

// editLoop holds the corpus warm and replays a developer's loop over
// it: each step re-sends a resident kernel unchanged, renamed and with
// its values edited.
type editLoop struct {
	e      *env
	ks     []*kernel
	bodies [][]byte
	h      http.Handler
	hit    [][]byte              // expected reply to a hit, by kernel
	primed []server.ArtifactJSON // cold artifacts, by kernel
	// edits kept for the oracles: round 0 and the latest round.
	edits    map[int][]server.ArtifactJSON
	lastEdit int
}

func (w *editLoop) setup(e *env) error {
	ks, err := buildCorpus(e.root, e.seed, true)
	if err != nil {
		return err
	}
	w.e, w.ks = e, ks
	if w.h, err = e.newHandler(); err != nil {
		return err
	}
	w.bodies = make([][]byte, len(ks))
	w.hit = make([][]byte, len(ks))
	w.primed = make([]server.ArtifactJSON, len(ks))
	w.edits = map[int][]server.ArtifactJSON{}
	prime := &runner{}
	for i, k := range ks {
		w.bodies[i] = compileBody(k.family, k.src)
		resp, err := prime.serve(w.h, "/compile", w.bodies[i], k.name, "prime")
		if err != nil {
			return err
		}
		var cr server.CompileResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			return fmt.Errorf("%s: decode: %w", k.name, err)
		}
		w.primed[i] = cr.Artifact
		hit := bytes.Replace(resp, []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
		if bytes.Equal(hit, resp) {
			return fmt.Errorf("%s: priming compile was not a miss", k.name)
		}
		w.hit[i] = append([]byte(nil), hit...)
	}
	return nil
}

func (w *editLoop) maxPasses() int { return maxEditRounds }

// editOf is kernel k's edit in round r: every value moved by r+1.
func editOf(k *kernel, r int) *ir.Func { return shiftValues(k.f, int64(r+1)) }

func (w *editLoop) pass(r *runner, round int) error {
	perm := rand.New(rand.NewSource(w.e.seed*1000003 + int64(round))).Perm(len(w.ks))
	kept := make([]server.ArtifactJSON, len(w.ks))
	suffix := fmt.Sprintf("_r%d", round)
	for _, idx := range perm {
		k := w.ks[idx]
		resp, err := r.serve(w.h, "/compile", w.bodies[idx], k.name+"#hit", "hit")
		if err != nil {
			return err
		}
		if !bytes.Equal(resp, w.hit[idx]) {
			return fmt.Errorf("%s: exact-text hit differs from the resident artifact", k.name)
		}
		renamed := compileBody(k.family, renameTemps(k.f, suffix).String())
		if resp, err = r.serve(w.h, "/compile", renamed, k.name+"#renamed", "renamed"); err != nil {
			return err
		}
		if !bytes.Equal(resp, w.hit[idx]) {
			return fmt.Errorf("%s: renamed hit differs from the resident artifact", k.name)
		}
		if !k.editable() {
			continue
		}
		edited := compileBody(k.family, editOf(k, round).String())
		if resp, err = r.serve(w.h, "/compile", edited, k.name+"#edit", "edit"); err != nil {
			return err
		}
		var cr server.CompileResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			return fmt.Errorf("%s: decode edit: %w", k.name, err)
		}
		if cr.Cache != "miss" {
			return fmt.Errorf("%s: round %d edit answered cache=%q, want a new artifact", k.name, round, cr.Cache)
		}
		kept[idx] = cr.Artifact
	}
	w.edits[round] = kept
	if w.lastEdit != 0 && w.lastEdit != round {
		delete(w.edits, w.lastEdit)
	}
	w.lastEdit = round
	return nil
}

func (w *editLoop) check() error {
	for i, k := range w.ks {
		if err := checkArtifact(k.family, k.src, w.primed[i], w.e.seed+int64(i)); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	for round, arts := range w.edits {
		for i, k := range w.ks {
			if !k.editable() {
				continue
			}
			if err := checkArtifact(k.family, editOf(k, round).String(), arts[i], w.e.seed+int64(i)); err != nil {
				return fmt.Errorf("%s round %d edit: %w", k.name, round, err)
			}
		}
	}
	return nil
}

func (w *editLoop) quality() quality {
	var q quality
	for i, a := range w.primed {
		if !w.ks[i].seeded {
			q.add(a.CriticalNs, a.LUTs, a.DSPs)
		}
	}
	for i, a := range w.edits[0] {
		if w.ks[i].editable() && !w.ks[i].seeded {
			q.add(a.CriticalNs, a.LUTs, a.DSPs)
		}
	}
	return q
}

func (w *editLoop) variants() (int, int) { return 0, 0 }

// ---- explore_sweep ----

// exploreSweep runs /explore over the fixed programs and then over a
// value-edited copy of each, on a fresh server every pass. No seeded
// programs take part: the enumeration fault fails a fixed set of
// variants, and that set must not depend on the seed.
type exploreSweep struct {
	e      *env
	sweeps []sweepInput
	h0     http.Handler
	first  []exploreFields // pass 0, by sweep
	digest [][32]byte
	nVar   int // variants attempted per pass
	nFail  int // variants failed per pass, all on the known fault
	passes int
}

type sweepInput struct {
	class  string
	f      *ir.Func
	family string
	body   []byte
}

func (w *exploreSweep) setup(e *env) error {
	ks, err := buildCorpus(e.root, e.seed, false)
	if err != nil {
		return err
	}
	w.e = e
	w.sweeps = w.sweeps[:0]
	for _, k := range ks {
		w.sweeps = append(w.sweeps, sweepInput{class: k.name, f: k.f, family: k.family,
			body: exploreBody(k.family, k.src)})
	}
	for _, k := range ks {
		if k.editable() {
			g := shiftValues(k.f, 1)
			w.sweeps = append(w.sweeps, sweepInput{class: k.name + "#edit", f: g, family: k.family,
				body: exploreBody(k.family, g.String())})
		}
	}
	w.first, w.digest, w.nVar, w.nFail, w.passes = nil, nil, 0, 0, 0
	w.h0, err = e.newHandler()
	return err
}

func (w *exploreSweep) maxPasses() int { return 0 }

func (w *exploreSweep) pass(r *runner, i int) error {
	h, err := freshHandler(w.e, &w.h0, i)
	if err != nil {
		return err
	}
	for j, s := range w.sweeps {
		resp, err := r.serve(h, "/explore", s.body, s.class, "sweep")
		if err != nil {
			return err
		}
		var er exploreFields
		if err := json.Unmarshal(resp, &er); err != nil {
			return fmt.Errorf("%s: decode: %w", s.class, err)
		}
		d, err := responseDigest("/explore", resp)
		if err != nil {
			return err
		}
		if i == 0 {
			nv, nf, err := classifyVariants(s.f, er)
			if err != nil {
				return fmt.Errorf("%s: %w", s.class, err)
			}
			w.first = append(w.first, er)
			w.digest = append(w.digest, d)
			w.nVar += nv
			w.nFail += nf
		} else if d != w.digest[j] {
			return fmt.Errorf("%s: pass %d sweep differs from the first pass's", s.class, i)
		}
	}
	w.passes = i + 1
	return nil
}

// classifyVariants counts a sweep's variants and its failures, and
// rejects any failure other than the known enumeration fault:
// explore.Enumerate offers bind=lut for vector-typed kernels, which no
// LUT pattern covers, and vec=2 splits into i16<2> operations that
// neither target implements. Both fail selection.
func classifyVariants(f *ir.Func, er exploreFields) (attempted, failed int, err error) {
	for _, v := range er.Variants {
		if v.OK {
			continue
		}
		known := v.ErrorCode == "select_failed" &&
			((v.ID == "bind=lut" && kernelHasVector(f)) || strings.Contains(v.ID, "vec=2"))
		if !known {
			return 0, 0, fmt.Errorf("variant %s failed: %s (%s)", v.ID, v.Error, v.ErrorCode)
		}
		failed++
	}
	if failed > 0 != er.Partial {
		return 0, 0, fmt.Errorf("partial=%t with %d failed variants", er.Partial, failed)
	}
	return len(er.Variants), failed, nil
}

func (w *exploreSweep) check() error {
	for i, er := range w.first {
		if err := checkFrontier(er); err != nil {
			return fmt.Errorf("%s: %w", w.sweeps[i].class, err)
		}
	}
	return nil
}

// quality scores each sweep by the best critical path on its frontier,
// and the area of that point.
func (w *exploreSweep) quality() quality {
	var q quality
	for _, er := range w.first {
		if len(er.Frontier) == 0 {
			q.add(math.NaN(), 0, 0)
			continue
		}
		best := er.Frontier[0].Metrics // canonical order: critical_ns first
		q.add(best.CriticalNs, best.Luts, best.Dsps)
	}
	return q
}

func (w *exploreSweep) variants() (int, int) { return w.nVar * w.passes, w.nFail * w.passes }
