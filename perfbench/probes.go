package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ckks"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/sampler"
)

// Kernel probes: the evaluator, co-processor-model and kernel layers at
// the paper's parameters (n = 4096), measured standalone on every workload
// so each layer's cost per call is on record whatever the workload's own
// parameters. Each figure is the median over probeReps calls.
const (
	probeReps  = 5
	kernelReps = 41
)

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func()) float64 {
	var xs []float64
	for k := 0; k < reps; k++ {
		start := time.Now()
		fn()
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs)
}

func kernelProbes(t *tracer) error {
	if err := bfvProbes(t); err != nil {
		return err
	}
	return ckksProbes(t)
}

// spanPath returns the wall time of every span under root, keyed by the
// path of names below the root ("mul/relin/sop").
func spanPath(root *obs.Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(prefix string, s *obs.Span)
	walk = func(prefix string, s *obs.Span) {
		for _, c := range s.Children {
			p := c.Name
			if prefix != "" {
				p = prefix + "/" + c.Name
			}
			out[p] += c.Dur
			walk(p, c)
		}
	}
	walk("", root)
	return out
}

func bfvProbes(t *tracer) error {
	params, err := fv.NewParams(fv.PaperConfig(65537))
	if err != nil {
		return err
	}
	prng := sampler.NewPRNG(7)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, galoisElt)
	enc := fv.NewEncryptor(params, pk, prng)
	pt := func(c0, c1 uint64) *fv.Plaintext {
		p := fv.NewPlaintext(params)
		p.Coeffs[0], p.Coeffs[1] = c0, c1
		return p
	}
	pa, pb := pt(1234, 99), pt(4321, 7)
	a, b := enc.Encrypt(pa), enc.Encrypt(pb)
	check := func(what string, ct *fv.Ciphertext, want []uint64) {
		t.attempted++
		if ok, _ := checkBFV(params, sk, ct, want, false); !ok {
			t.failed++
			t.rep.fail("%s probe decrypted wrong", what)
		}
	}
	mulWant := reference(params, engine.OpMul, pa, pb)

	// fv: the Mul stage tree, one fresh tracer per call.
	ev := fv.NewEvaluator(params)
	stages := map[string][]float64{}
	for k := 0; k < probeReps; k++ {
		tr := obs.New("fv")
		ev.SetTracer(tr)
		ct := ev.Mul(a, b, rk)
		ev.SetTracer(nil)
		check("fv Mul", ct, mulWant)
		for path, d := range spanPath(tr.Root()) {
			stages[path] = append(stages[path], ms(d))
		}
	}
	for _, s := range []struct{ path, name string }{
		{"mul/lift", "fv.lift_ms"}, {"mul/ntt", "fv.ntt_ms"}, {"mul/tensor", "fv.tensor_ms"},
		{"mul/intt", "fv.intt_ms"}, {"mul/scale", "fv.scale_ms"},
		{"mul/relin/decomp", "fv.relin.decomp_ms"}, {"mul/relin/sop", "fv.relin.sop_ms"},
		{"mul/relin/combine", "fv.relin.combine_ms"},
	} {
		if len(stages[s.path]) == 0 {
			return fmt.Errorf("fv tracer emitted no %q span", s.path)
		}
		t.rep.set(s.name, median(stages[s.path]), "ms")
	}

	// core: host time to simulate one op on a single co-processor.
	acc, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		return err
	}
	var (
		ct   *fv.Ciphertext
		oerr error
	)
	t.rep.set("core.mul_host_ms", medianOf(probeReps, func() { ct, _, oerr = acc.Mul(a, b, rk) }), "ms")
	if oerr != nil {
		return oerr
	}
	check("core Mul", ct, mulWant)
	t.rep.set("core.add_host_ms", medianOf(probeReps, func() { ct, _, oerr = acc.Add(a, b) }), "ms")
	if oerr != nil {
		return oerr
	}
	check("core Add", ct, reference(params, engine.OpAdd, pa, pb))
	t.rep.set("core.rotate_host_ms", medianOf(probeReps, func() { ct, _, oerr = acc.Rotate(a, gk) }), "ms")
	if oerr != nil {
		return oerr
	}
	check("core Rotate", ct, reference(params, engine.OpRotate, pa, pb))

	// poly / rns: one limb's NTT and one RNS polynomial's Lift and Scale.
	rng := rand.New(rand.NewSource(7))
	q0 := params.QMods[0]
	tbl, err := poly.NewNTTTable(q0, params.N())
	if err != nil {
		return err
	}
	limb := make([]uint64, params.N())
	for i := range limb {
		limb[i] = uint64(rng.Int63n(int64(q0.Q)))
	}
	orig := append([]uint64(nil), limb...)
	t.rep.set("poly.ntt_us", 1e3*medianOf(kernelReps, func() { tbl.Forward(limb) }), "us")
	t.rep.set("poly.intt_us", 1e3*medianOf(kernelReps, func() { tbl.Inverse(limb) }), "us")
	t.attempted++
	for i := range limb {
		if limb[i] != orig[i] {
			t.failed++
			t.rep.fail("NTT probe: inverse(forward(x)) != x")
			break
		}
	}
	x := a.Els[0].Clone()
	var lifted poly.RNSPoly
	t.rep.set("rns.lift_us", 1e3*medianOf(kernelReps, func() { lifted = params.Lifter.LiftPoly(x) }), "us")
	t.rep.set("rns.scale_us", 1e3*medianOf(kernelReps, func() { params.Scaler.ScalePoly(lifted) }), "us")
	return nil
}

func ckksProbes(t *tracer) error {
	cp, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		return err
	}
	kg := ckks.NewKeyGenerator(cp, sampler.NewPRNG(7))
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, cp.GaloisElementForRotation(1))
	encd := ckks.NewEncoder(cp)
	slots := cp.Slots()
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = math.Sin(float64(i))
	}
	pt, err := encd.Encode(vals, cp.MaxLevel(), cp.DefaultScale())
	if err != nil {
		return err
	}
	x := ckks.NewEncryptor(cp, pk, sampler.NewPRNG(8)).Encrypt(pt)
	dec := ckks.NewDecryptor(cp, sk)
	check := func(what string, ct *ckks.Ciphertext, want func(i int) float64) {
		got := encd.Decode(dec.Decrypt(ct))
		t.attempted++
		for i := range got {
			if math.Abs(got[i]-want(i)) > ckksMaxErr {
				t.failed++
				t.rep.fail("%s probe: slot %d is %g, want %g", what, i, got[i], want(i))
				return
			}
		}
	}
	square := func(i int) float64 { return vals[i] * vals[i] }

	ev := ckks.NewEvaluator(cp)
	var mul, relin, rescale, rotate []float64
	var sq, rot *ckks.Ciphertext
	for k := 0; k < probeReps; k++ {
		tr := obs.New("ckks")
		ev.SetTracer(tr)
		prod := ev.Mul(x, x, rk)
		sq = ev.Rescale(prod)
		rot = ev.Rotate(x, 1, gk)
		ev.SetTracer(nil)
		sp := spanPath(tr.Root())
		mul = append(mul, ms(sp["ckks_mul"]))
		var r time.Duration
		for _, s := range []string{"decomp", "sop", "sop_intt", "moddown", "combine"} {
			r += sp["ckks_mul/"+s]
		}
		relin = append(relin, ms(r))
		rescale = append(rescale, ms(sp["ckks_rescale"]))
		rotate = append(rotate, ms(sp["ckks_rotate"]))
	}
	check("ckks Mul+Rescale", sq, square)
	check("ckks Rotate", rot, func(i int) float64 { return vals[(i+1)%slots] })
	t.rep.set("ckks.mul_ms", median(mul), "ms")
	t.rep.set("ckks.relin_ms", median(relin), "ms")
	t.rep.set("ckks.rescale_ms", median(rescale), "ms")
	t.rep.set("ckks.rotate_ms", median(rotate), "ms")

	w := tile(slots, 0.5)
	wpt, err := encd.Encode(w, x.Level(), cp.DefaultScale())
	if err != nil {
		return err
	}
	var half *ckks.Ciphertext
	t.rep.set("ckks.mul_plain_ms", medianOf(probeReps, func() { half = ev.MulPlain(x, wpt) }), "ms")
	check("ckks MulPlain", ev.Rescale(half), func(i int) float64 { return 0.5 * vals[i] })

	cacc, err := core.NewCKKS(cp, 1)
	if err != nil {
		return err
	}
	var (
		ct   *ckks.Ciphertext
		oerr error
	)
	t.rep.set("core.ckks_mul_rescale_host_ms", medianOf(probeReps, func() { ct, _, oerr = cacc.Mul(x, x, rk) }), "ms")
	if oerr != nil {
		return oerr
	}
	check("core CKKS Mul+Rescale", ct, square)
	return nil
}
