package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fv"
)

// node is one in-process serving node: an engine behind a wire server on a
// loopback port.
type node struct {
	id   string
	eng  *engine.Engine
	srv  *cloud.Server
	addr string
}

func startNode(id string, cfg engine.Config) (*node, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", id, err)
	}
	srv := cloud.NewServer(cfg.Params, eng, nil)
	srv.NodeID = id
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		shutdownEngine(eng)
		return nil, fmt.Errorf("listen %s: %w", id, err)
	}
	go srv.Serve()
	return &node{id: id, eng: eng, srv: srv, addr: addr}, nil
}

func (n *node) close() {
	n.srv.Close()
	shutdownEngine(n.eng)
}

func shutdownEngine(eng *engine.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	eng.Shutdown(ctx)
}

// dialCluster builds the mux-transport cluster client in front of nodes:
// one shared multiplexed connection per backend. Health probes are spaced
// far beyond a run so they never add traffic, and the attempt timeout is
// far beyond any request so a slow host never triggers a retry (which
// would change the simulated accounting).
func dialCluster(params *fv.Params, nodes []*node, seed int64) (*cluster.Client, error) {
	var backends []cluster.Backend
	for _, n := range nodes {
		backends = append(backends, cluster.Backend{ID: n.id, Addr: n.addr})
	}
	return cluster.NewClient(cluster.Config{
		Params:         params,
		Backends:       backends,
		Mux:            true,
		AttemptTimeout: time.Minute,
		Health:         cluster.HealthConfig{Interval: time.Hour, Seed: seed},
	})
}

// busyCycles sums the simulated busy time (compute plus key streaming) of
// every worker of every engine.
func busyCycles(engs ...*engine.Engine) uint64 {
	var c uint64
	for _, e := range engs {
		for _, w := range e.Stats().PerWorker {
			c += w.SimCycles
		}
	}
	return c
}
