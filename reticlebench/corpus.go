package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"reticle/internal/eval"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/server"
)

// families are the two bundled targets every kernel is compiled for.
var families = []string{"ultrascale", "agilex"}

// irgenDraw is how many random programs the seed draws, and irgenInstrs
// their size: enough to vary the corpus per seed, few enough that the
// fixed Fig. 13 programs dominate every aggregate.
const (
	irgenDraw   = 2
	irgenInstrs = 12
)

// maxEditRounds bounds the edit loop: a round shifts every const/reg
// value by the round number modulo 2^width, so past 255 rounds an i8
// kernel's edits would repeat and turn into exact-text hits.
const maxEditRounds = 255

// kernel is one corpus program under one family.
type kernel struct {
	name   string // family/function, unique
	family string
	f      *ir.Func
	src    string
	seeded bool // drawn from --seed rather than fixed
}

// editable reports whether the kernel has a const or reg value at least
// eight bits wide, so that the first maxEditRounds edits are all
// distinct from the kernel and from each other.
func (k *kernel) editable() bool {
	for _, in := range k.f.Body {
		if (in.Op == ir.OpConst || in.Op == ir.OpReg) && in.Type.Width() >= 8 {
			return true
		}
	}
	return false
}

// fixedPrograms returns the paper's Fig. 13 programs at their sizes and
// the bundled examples/programs/*.ret, in a fixed order.
func fixedPrograms(root string) ([]*ir.Func, error) {
	var fs []*ir.Func
	for _, b := range []struct {
		name  string
		sizes []int
	}{{"tensoradd", eval.TensorAddSizes}, {"tensordot", eval.TensorDotSizes}, {"fsm", eval.FSMSizes}} {
		for _, size := range b.sizes {
			f, err := eval.Program(b.name, size)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
	}
	paths, err := filepath.Glob(filepath.Join(root, "examples", "programs", "*.ret"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no examples/programs/*.ret under %s", root)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// buildCorpus returns every program on both families. withDraw adds the
// seeded irgen draw.
func buildCorpus(root string, seed int64, withDraw bool) ([]*kernel, error) {
	fixed, err := fixedPrograms(root)
	if err != nil {
		return nil, err
	}
	var drawn []*ir.Func
	if withDraw {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < irgenDraw; i++ {
			drawn = append(drawn, irgen.Generate(rng, irgen.Config{Instrs: irgenInstrs, WithVectors: true}))
		}
	}
	all := append(fixed, drawn...)
	var ks []*kernel
	for _, fam := range families {
		for i, f := range all {
			ks = append(ks, &kernel{
				name:   fam + "/" + f.Name,
				family: fam,
				f:      f,
				src:    f.String(),
				seeded: i >= len(fixed),
			})
		}
	}
	return ks, nil
}

// compileBody renders a /compile request body.
func compileBody(family, src string) []byte {
	b, err := json.Marshal(server.CompileRequest{Family: family, IR: src})
	if err != nil {
		panic(err) // strings only
	}
	return b
}

// exploreBody renders an /explore request body.
func exploreBody(family, src string) []byte {
	b, err := json.Marshal(server.ExploreRequest{Family: family, IR: src, Jobs: exploreJobs})
	if err != nil {
		panic(err)
	}
	return b
}

// shiftValues returns f with every const and reg value moved by delta,
// modulo 2^(lane width): the edit a developer makes to coefficients or
// initial state. Structure is untouched, so the placement problem, and
// with it the hint-cache key, stay the same.
func shiftValues(f *ir.Func, delta int64) *ir.Func {
	g := f.Clone()
	for i := range g.Body {
		in := &g.Body[i]
		if in.Op != ir.OpConst && in.Op != ir.OpReg {
			continue
		}
		mod := int64(1) << uint(in.Type.Width())
		attrs := make([]int64, len(in.Attrs))
		for j, v := range in.Attrs {
			attrs[j] = ((v+delta)%mod + mod) % mod
		}
		in.Attrs = attrs
	}
	return g
}

// renameTemps returns f with every temporary renamed under a fresh
// suffix. Ports keep their names (they are the module interface), so
// the canonical hash, and with it the artifact, is unchanged.
func renameTemps(f *ir.Func, suffix string) *ir.Func {
	g := f.Clone()
	ports := map[string]bool{}
	for _, p := range g.Inputs {
		ports[p.Name] = true
	}
	for _, p := range g.Outputs {
		ports[p.Name] = true
	}
	names := map[string]string{}
	for i := range g.Body {
		d := g.Body[i].Dest
		if !ports[d] {
			names[d] = d + suffix
		}
	}
	for i := range g.Body {
		in := &g.Body[i]
		if n, ok := names[in.Dest]; ok {
			in.Dest = n
		}
		args := make([]string, len(in.Args))
		for j, a := range in.Args {
			if n, ok := names[a]; ok {
				a = n
			}
			args[j] = a
		}
		in.Args = args
	}
	return g
}

// kernelHasVector reports whether any instruction is vector-typed.
func kernelHasVector(f *ir.Func) bool {
	for _, in := range f.Body {
		if in.Type.IsVector() {
			return true
		}
	}
	return false
}
