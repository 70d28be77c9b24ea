package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/program"
	"repro/internal/sampler"
)

const (
	searchKeyBits = 16 // query width: a depth-4 AND tree per entry
	searchQueries = 4  // distinct encrypted queries in the request sequence
	searchTenant  = "searcher"
)

// searchConfig is the shape examples/encsearch serves: depth 4 at t = 2 on
// the paper's 6+7-prime basis over a smaller ring.
func searchConfig() fv.Config {
	return fv.Config{
		N: 1024, T: 2, QCount: 6, PCount: 7, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 7,
	}
}

var searchTable = []program.TableEntry{
	{Key: 0x1234, Value: 111}, {Key: 0xBEEF, Value: 222},
	{Key: 0x0000, Value: 333}, {Key: 0xFFFF, Value: 444},
}

func init() {
	register(&workload{
		name:       "bfv-program-search",
		submitters: 1,
		setupReps:  5,
		warmup:     1,
		simReqs:    2,
		build:      buildSearch,
		trace:      traceSearch,
	})
}

type searchInstance struct {
	params  *fv.Params
	sk      *fv.SecretKey
	rk      *fv.RelinKey
	prog    *program.Program
	queries [][]*fv.Ciphertext
	keys    []uint64 // each query's key
	want    []int64  // table value each query retrieves
	node    *node
	client  *cluster.Client
	serial  atomic.Uint64 // summed one-lane program cost of every reply
}

func buildSearch(seed int64) (_ instance, err error) {
	params, err := fv.NewParams(searchConfig())
	if err != nil {
		return nil, err
	}
	in := &searchInstance{params: params}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	prng := sampler.NewPRNG(uint64(seed))
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(keySeed))
	var pk *fv.PublicKey
	in.sk, pk, in.rk = kg.GenKeys()

	// The server's table is fixed (examples/encsearch's first entries), so
	// every seed serves the same compiled program and simulated schedule;
	// the seed draws which entry each encrypted query looks up.
	table := searchTable
	if in.prog, err = program.CompileEncSearch(params, table, searchKeyBits); err != nil {
		return nil, err
	}
	enc := fv.NewEncryptor(params, pk, prng)
	for q := 0; q < searchQueries; q++ {
		e := table[rng.Intn(len(table))]
		bits := make([]*fv.Ciphertext, searchKeyBits)
		for i := range bits {
			pt := fv.NewPlaintext(params)
			pt.Coeffs[0] = uint64(e.Key>>i) & 1
			bits[i] = enc.Encrypt(pt)
		}
		in.queries = append(in.queries, bits)
		in.keys = append(in.keys, e.Key)
		in.want = append(in.want, e.Value)
	}

	if in.node, err = startNode("node-0", engine.Config{Params: params, Workers: 2, QueueDepth: 64}); err != nil {
		return nil, err
	}
	in.node.eng.SetRelinKey(searchTenant, in.rk)
	if in.client, err = dialCluster(params, []*node{in.node}, seed); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *searchInstance) send(ctx context.Context, i int) (reply, error) {
	resp, err := in.client.RunProgram(ctx, searchTenant, in.prog, in.queries[i%len(in.queries)])
	if err != nil {
		return reply{}, err
	}
	if len(resp.Outputs) != 1 {
		return reply{}, fmt.Errorf("program returned %d outputs, want 1", len(resp.Outputs))
	}
	in.serial.Add(nanosToCycles(resp.SerialNanos))
	return reply{cts: resp.Outputs, simCycles: nanosToCycles(resp.MakespanNanos)}, nil
}

func (in *searchInstance) check(i int, r reply, quality bool) (bool, float64) {
	if len(r.cts) != 1 || r.cts[0] == nil {
		return false, 0
	}
	got, err := fv.NewIntegerEncoder(in.params).Decode(fv.NewDecryptor(in.params, in.sk).Decrypt(r.cts[0]))
	if err != nil || got != in.want[i%len(in.want)] {
		return false, 0
	}
	if !quality {
		return true, 0
	}
	return true, float64(fv.NoiseBudget(in.params, in.sk, r.cts[0]))
}

// busy is the summed serial (one-lane) simulated cost of the programs
// served: the DAG's worker assignment is left to goroutine scheduling, so
// per-worker ledgers are not deterministic, but the per-program totals are.
func (in *searchInstance) busy() uint64 { return in.serial.Load() }

func (in *searchInstance) env() stackEnv {
	return stackEnv{poolWorkers: in.params.Pool.Workers(), engineWorkers: 2, nodes: 1}
}

func (in *searchInstance) close() {
	if in.client != nil {
		in.client.Close()
	}
	if in.node != nil {
		in.node.close()
	}
}
