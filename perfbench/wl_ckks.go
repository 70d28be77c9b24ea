package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

const (
	ckksFeatures = 8    // one feature block per patient (power of two)
	ckksInputs   = 8    // distinct encrypted feature matrices in the sequence
	ckksMaxErr   = 1e-3 // the pipeline's stated precision (examples/encml)
)

func init() {
	register(&workload{
		name:       "ckks-infer-paper",
		submitters: 1,
		setupReps:  5,
		warmup:     1,
		simReqs:    8,
		build:      buildCKKS,
		trace:      traceCKKS,
	})
}

// ckksInstance serves the examples/encml logistic-regression pipeline:
// MulPlain weights, a log2(d) rotate-and-add sum, AddPlain bias, then the
// degree-3 sigmoid 0.5 + 0.197 t - 0.004 t^3 (two chain Mul+Rescale, two
// MulPlain, Add, AddPlain). Requests go to the engine directly.
type ckksInstance struct {
	cp      *ckks.Params
	fvp     *fv.Params // the engine's BFV side (unused by the pipeline)
	sk      *ckks.SecretKey
	rk      *ckks.RelinKey
	gks     []*ckks.GaloisKey
	enc     *ckks.Encoder
	inputs  []*ckks.Ciphertext
	want    [][]float64 // per input: each patient's cleartext score
	weights []float64   // tiled model weights
	bias    []float64
	coef    [3][]float64 // tiled 0.197, -0.004, 0.5
	eng     *engine.Engine
}

func buildCKKS(seed int64) (_ instance, err error) {
	cp, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		return nil, err
	}
	fvp, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		return nil, err
	}
	in := &ckksInstance{cp: cp, fvp: fvp, enc: ckks.NewEncoder(cp)}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	kg := ckks.NewKeyGenerator(cp, sampler.NewPRNG(keySeed))
	var pk *ckks.PublicKey
	in.sk, pk, in.rk = kg.GenKeys()
	for r := 1; r < ckksFeatures; r *= 2 {
		in.gks = append(in.gks, kg.GenGaloisKey(in.sk, cp.GaloisElementForRotation(r)))
	}

	// The served model is fixed (examples/encml's); the seed draws the
	// patients' features.
	slots := cp.Slots()
	w := []float64{0.82, -0.45, 0.31, 0.27, -0.63, 0.11, 0.38, -0.22}
	const b = 0.15
	in.weights, in.bias = make([]float64, slots), tile(slots, b)
	for i := range in.weights {
		in.weights[i] = w[i%ckksFeatures]
	}
	in.coef = [3][]float64{tile(slots, 0.197), tile(slots, -0.004), tile(slots, 0.5)}

	encr := ckks.NewEncryptor(cp, pk, sampler.NewPRNG(uint64(seed)+1))
	for k := 0; k < ckksInputs; k++ {
		x := make([]float64, slots)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		pt, err := in.enc.Encode(x, cp.MaxLevel(), cp.DefaultScale())
		if err != nil {
			return nil, err
		}
		in.inputs = append(in.inputs, encr.Encrypt(pt))
		scores := make([]float64, slots/ckksFeatures)
		for p := range scores {
			dot := b
			for j := 0; j < ckksFeatures; j++ {
				dot += w[j] * x[p*ckksFeatures+j]
			}
			scores[p] = 0.5 + 0.197*dot - 0.004*dot*dot*dot
		}
		in.want = append(in.want, scores)
	}

	if in.eng, err = engine.New(engine.Config{Params: fvp, CKKSParams: cp, Workers: 1, QueueDepth: 64}); err != nil {
		return nil, err
	}
	in.eng.SetCKKSRelinKey("", in.rk)
	for _, gk := range in.gks {
		in.eng.SetCKKSGaloisKey("", gk)
	}
	return in, nil
}

func tile(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// pipeline runs one inference through do, which serves one op. It returns
// the final ciphertext and the summed simulated compute cycles.
func (in *ckksInstance) pipeline(x *ckks.Ciphertext, do func(engine.Op) (*ckks.Ciphertext, uint64, error)) (*ckks.Ciphertext, uint64, error) {
	var (
		sim  uint64
		fail error
	)
	run := func(op engine.Op) *ckks.Ciphertext {
		if fail != nil {
			return nil
		}
		ct, c, err := do(op)
		if err != nil {
			fail = fmt.Errorf("%v: %w", op.Kind, err)
		}
		sim += c
		return ct
	}
	t := run(engine.Op{Kind: engine.OpCKKSMulPlain, CA: x, Plain: in.weights})
	for r := 1; r < ckksFeatures; r *= 2 {
		rot := run(engine.Op{Kind: engine.OpCKKSRotate, CA: t, R: r})
		t = run(engine.Op{Kind: engine.OpCKKSAdd, CA: t, CB: rot})
	}
	t = run(engine.Op{Kind: engine.OpCKKSAddPlain, CA: t, Plain: in.bias})
	t2 := run(engine.Op{Kind: engine.OpCKKSMul, CA: t, CB: t})
	t3 := run(engine.Op{Kind: engine.OpCKKSMul, CA: t2, CB: t})
	lin := run(engine.Op{Kind: engine.OpCKKSMulPlain, CA: t, Plain: in.coef[0]})
	cub := run(engine.Op{Kind: engine.OpCKKSMulPlain, CA: t3, Plain: in.coef[1]})
	sig := run(engine.Op{Kind: engine.OpCKKSAdd, CA: lin, CB: cub})
	sig = run(engine.Op{Kind: engine.OpCKKSAddPlain, CA: sig, Plain: in.coef[2]})
	return sig, sim, fail
}

func (in *ckksInstance) send(ctx context.Context, i int) (reply, error) {
	ct, sim, err := in.pipeline(in.inputs[i%len(in.inputs)], func(op engine.Op) (*ckks.Ciphertext, uint64, error) {
		res, err := in.eng.Submit(ctx, op)
		if err != nil {
			return nil, 0, err
		}
		return res.CCt, uint64(res.Report.ComputeCycles), nil
	})
	if err != nil {
		return reply{}, err
	}
	return reply{ck: ct, simCycles: sim}, nil
}

// check decodes every patient's score; the quality is -log2 of the largest
// slot error against the cleartext polynomial.
func (in *ckksInstance) check(i int, r reply, quality bool) (bool, float64) {
	if r.ck == nil {
		return false, 0
	}
	got := in.enc.Decode(ckks.NewDecryptor(in.cp, in.sk).Decrypt(r.ck))
	maxErr := 0.0
	for p, want := range in.want[i%len(in.want)] {
		maxErr = math.Max(maxErr, math.Abs(got[p*ckksFeatures]-want))
	}
	if !(maxErr < ckksMaxErr) {
		return false, 0
	}
	return true, -math.Log2(maxErr)
}

func (in *ckksInstance) busy() uint64 { return busyCycles(in.eng) }

func (in *ckksInstance) env() stackEnv {
	return stackEnv{poolWorkers: in.cp.Pool.Workers(), engineWorkers: 1, nodes: 1}
}

func (in *ckksInstance) close() {
	if in.eng != nil {
		shutdownEngine(in.eng)
	}
}
