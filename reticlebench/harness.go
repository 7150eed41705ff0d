package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"reticle/internal/server"
)

// measured is one timed request.
type measured struct {
	class string // latency class: one kernel (and request kind) of the workload
	kind  string // compile, hit, renamed, edit, sweep
	wall  time.Duration
	cpu   time.Duration
}

// recorder is a minimal http.ResponseWriter: the benchmark times
// ServeHTTP alone, so the writer must cost next to nothing.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// runner drives one client's closed loop: the next request goes out
// only after the previous reply is in.
type runner struct {
	ops []measured
	// digests, when non-nil, collects a digest of every response's
	// deterministic fields, in request order, so two runs of the same
	// request sequence can be compared byte for byte.
	digests [][32]byte
	// after, when set, is called with each request and its reply once
	// the request's clock has stopped.
	after func(path string, body, resp []byte) error
	// ref, when set, is sampled before each request's clock starts.
	ref *refClock
}

// serve sends one request and times ServeHTTP alone: the request value
// is built before the clock starts and the reply is inspected after it
// stops. A status other than 200 is returned as an error.
func (r *runner) serve(h http.Handler, path string, body []byte, class, kind string) ([]byte, error) {
	r.ref.maybe()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec := &recorder{}
	c0 := cpuNow()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	wall := time.Since(t0)
	cpu := cpuNow() - c0
	r.ops = append(r.ops, measured{class: class, kind: kind, wall: wall, cpu: cpu})
	resp := rec.body.Bytes()
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", path, class, rec.status, bytes.TrimSpace(resp))
	}
	if r.after != nil {
		if err := r.after(path, body, resp); err != nil {
			return nil, fmt.Errorf("%s %s: %w", path, class, err)
		}
	}
	if r.digests != nil {
		d, err := responseDigest(path, resp)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", path, class, err)
		}
		r.digests = append(r.digests, d)
	}
	return resp, nil
}

// outputFields is the part of a compiled artifact that a cache tier
// must never change: everything the compiler emits, but not the wall
// times or the warm-start counters that say how it got there.
type outputFields struct {
	Asm           string  `json:"asm"`
	Placed        string  `json:"placed"`
	Verilog       string  `json:"verilog"`
	LUTs          int     `json:"luts"`
	DSPs          int     `json:"dsps"`
	FFs           int     `json:"ffs"`
	Carries       int     `json:"carries"`
	CriticalNs    float64 `json:"critical_ns"`
	FMaxMHz       float64 `json:"fmax_mhz"`
	CascadeChains int     `json:"cascade_chains"`
	Degraded      bool    `json:"degraded"`
}

func outputsOf(a server.ArtifactJSON) outputFields {
	return outputFields{
		Asm: a.Asm, Placed: a.Placed, Verilog: a.Verilog,
		LUTs: a.LUTs, DSPs: a.DSPs, FFs: a.FFs, Carries: a.Carries,
		CriticalNs: a.CriticalNs, FMaxMHz: a.FMaxMHz,
		CascadeChains: a.CascadeChains, Degraded: a.Degraded,
	}
}

// exploreFields is the deterministic part of an /explore reply; the
// stats block carries wall times and cache attribution, which vary.
type exploreFields struct {
	Name     string                        `json:"name"`
	Family   string                        `json:"family"`
	Variants []server.ExploreVariant       `json:"variants"`
	Frontier []server.ExploreFrontierPoint `json:"frontier"`
	Partial  bool                          `json:"partial"`
}

// responseDigest hashes a reply's deterministic fields: for /compile the
// name, family, cache outcome, key and every artifact field except the
// compile's own wall times; for /explore everything but the stats.
func responseDigest(path string, resp []byte) ([32]byte, error) {
	var v any
	switch path {
	case "/compile":
		var cr server.CompileResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			return [32]byte{}, err
		}
		cr.Artifact.CompileNS = 0
		cr.Artifact.Stages = server.StagesJSON{}
		v = cr
	case "/explore":
		var er exploreFields
		if err := json.Unmarshal(resp, &er); err != nil {
			return [32]byte{}, err
		}
		v = er
	default:
		return [32]byte{}, fmt.Errorf("no digest for %s", path)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
