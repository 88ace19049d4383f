package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"spammass/internal/cliobs"
	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/ingest"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
)

// ladderReps is how often each call of the ladder repeats, and
// slowReps how often the calls that take seconds do, to keep a traced
// run within its time; each time is the median.
const (
	ladderReps = 3
	slowReps   = 2
)

// ladder times the public calls of each layer in process, on the same
// inputs as the workloads, and adds the per-layer numbers to out. The
// solver settings come from the binary's flag defaults; only epsilon
// and the iteration cap, which are not flags, are restated.
func (e *env) ladder(ctx context.Context, cs *churnSet, tr *tracer, out map[string]float64, summaries map[string]Summary) error {
	root := tr.begin("ladder", nil, tr.newOp())
	defer root.end()
	layout := pagerank.LayoutBlocked
	if e.defaults["solver-layout"] == "flat" {
		layout = pagerank.LayoutFlat
	}
	precision := pagerank.PrecisionFloat64
	if e.defaults["solver-precision"] == "float32" {
		precision = pagerank.PrecisionFloat32
	}
	solver := pagerank.Config{Damping: e.prm.Damping, Epsilon: serverEpsilon, MaxIter: serverMaxIter,
		Layout: layout, Precision: precision}
	dcfg := mass.DetectConfig{RelMassThreshold: e.prm.Tau, ScaledPageRankThreshold: e.prm.Rho}
	timed := func(name string, reps int, f func() error) ([]float64, error) {
		var ms []float64
		for i := 0; i < reps; i++ {
			sp := tr.begin(name, root, 0)
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			sp.end()
		}
		return ms, nil
	}
	put := func(name string, v []float64, unit string) {
		s := summarize(v, unit)
		out[name] = s.Median
		summaries[name] = s
	}

	var g *graph.Graph
	ms, err := timed("graph.LoadFile", ladderReps, func() (err error) {
		g, _, err = graph.LoadFile(e.webPath(".graph"), nil)
		return err
	})
	if err != nil {
		return err
	}
	put("graph.load_ms", ms, "ms")
	names, err := cliobs.LoadLines(e.webPath(".names"))
	if err != nil {
		return err
	}
	h, err := graph.NewHostGraph(g, names)
	if err != nil {
		return err
	}
	core, err := cliobs.LoadNodeIDs(e.webPath(".core"), g.NumNodes())
	if err != nil {
		return err
	}

	var est *mass.Estimates
	var solveMS []float64
	ms, err = timed("mass.EstimateFromCore", slowReps, func() (err error) {
		est, err = mass.EstimateFromCore(g, core, mass.Options{Solver: solver, Gamma: e.prm.Gamma})
		if err == nil {
			solveMS = append(solveMS, float64(est.SolveStats.WallTime)/1e6)
		}
		return err
	})
	if err != nil {
		return err
	}
	put("mass.cold_estimate_ms", ms, "ms")
	put("pagerank.cold_solve_ms", solveMS, "ms")
	out["pagerank.cold_iterations"] = float64(est.SolveStats.Iterations)

	scfg := serve.SnapshotConfig{Detect: dcfg, Gamma: e.prm.Gamma, Core: core}
	store := serve.NewStore()
	var snap *serve.Snapshot
	var publishUS []float64
	epoch := int64(0)
	ms, err = timed("serve.NewSnapshot", slowReps, func() (err error) {
		epoch++
		snap, err = serve.NewSnapshot(h, est, scfg, epoch)
		if err != nil {
			return err
		}
		sp := tr.begin("Store.Publish", root, 0)
		t0 := time.Now()
		err = store.Publish(snap)
		publishUS = append(publishUS, float64(time.Since(t0))/1e3)
		sp.end()
		return err
	})
	if err != nil {
		return err
	}
	put("serve.snapshot_build_ms", ms, "ms")
	put("serve.publish_us", publishUS, "us")

	// Reads: the same Zipf popularity as the workloads.
	rng := rand.New(rand.NewSource(1))
	perm := popularity(rng, len(names))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(names)-1))
	hot := make([]string, 100000)
	for i := range hot {
		hot[i] = names[perm[zipf.Uint64()]]
	}
	var lookupNS []float64
	if _, err := timed("Snapshot.Lookup", ladderReps, func() error {
		t0 := time.Now()
		for _, name := range hot {
			if _, ok := snap.Lookup(name); !ok {
				return fmt.Errorf("host %s missing", name)
			}
		}
		lookupNS = append(lookupNS, float64(time.Since(t0))/float64(len(hot)))
		return nil
	}); err != nil {
		return err
	}
	put("serve.snapshot_lookup_ns", lookupNS, "ns")

	reg := obs.NewRegistry()
	srv := serve.NewServer(store, nil, serve.Config{Obs: obs.NewContext(reg, nil),
		Tracing: e.defaults["tracing"] != "false", DisableMetrics: e.defaults["metrics"] == "false"})
	handler := srv.Handler()
	serveOne := func(req *http.Request) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", req.URL.Path, rec.Code)
		}
		return nil
	}
	const handlerCalls = 20000
	var hostUS []float64
	if _, err := timed("Handler /v1/host", ladderReps, func() error {
		t0 := time.Now()
		for i := 0; i < handlerCalls; i++ {
			if err := serveOne(httptest.NewRequest(http.MethodGet, "/v1/host/"+hot[i], nil)); err != nil {
				return err
			}
		}
		hostUS = append(hostUS, float64(time.Since(t0))/1e3/handlerCalls)
		return nil
	}); err != nil {
		return err
	}
	put("serve.handler_host_us", hostUS, "us")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < handlerCalls; i++ {
		_ = serveOne(httptest.NewRequest(http.MethodGet, "/v1/host/"+hot[i], nil))
	}
	runtime.ReadMemStats(&m1)
	out["serve.allocs_per_host"] = float64(m1.Mallocs-m0.Mallocs) / handlerCalls
	var batchBodies [][]byte
	for i := 0; i < 200; i++ {
		hosts := make([]string, batchSize)
		for j := range hosts {
			hosts[j] = names[rng.Intn(len(names))]
		}
		b, _ := json.Marshal(map[string][]string{"hosts": hosts})
		batchBodies = append(batchBodies, b)
	}
	var batchUS []float64
	if _, err := timed("Handler /v1/batch", ladderReps, func() error {
		t0 := time.Now()
		for i := 0; i < 2000; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(batchBodies[i%len(batchBodies)]))
			if err := serveOne(req); err != nil {
				return err
			}
		}
		batchUS = append(batchUS, float64(time.Since(t0))/1e3/2000)
		return nil
	}); err != nil {
		return err
	}
	put("serve.handler_batch_us", batchUS, "us")

	// Top-n merge of two shard-sized rankings.
	top, err := snap.Top(serve.MetricPageRank, serve.DefaultMaxTop)
	if err != nil {
		return err
	}
	var lists [numShards][]serve.HostRecord
	for _, r := range top {
		s := graph.ShardOf(r.Host, numShards)
		lists[s] = append(lists[s], r)
	}
	var mergeUS []float64
	if _, err := timed("serve.MergeTop", ladderReps, func() error {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			if _, err := serve.MergeTop(serve.MetricPageRank, topN, lists[0], lists[1]); err != nil {
				return err
			}
		}
		mergeUS = append(mergeUS, float64(time.Since(t0))/1e3/1000)
		return nil
	}); err != nil {
		return err
	}
	put("shard.merge_top_us", mergeUS, "us")

	// The delta path on the seed's first batch.
	b, err := delta.ReadText(bytes.NewReader(cs.bodies[0]))
	if err != nil {
		return err
	}
	var res *delta.Result
	ms, err = timed("delta.Apply", ladderReps, func() (err error) {
		res, err = delta.Apply(h, b)
		return err
	})
	if err != nil {
		return err
	}
	put("delta.merge_ms", ms, "ms")
	newCore := res.RemapNodes(core)
	var warmSolveMS []float64
	ms, err = timed("mass.EstimateFromCoreWarm", ladderReps, func() error {
		warm, err := mass.RemapWarmStart(est, res.Remap, res.Hosts.Graph.NumNodes(), newCore, e.prm.Gamma)
		if err != nil {
			return err
		}
		es, err := mass.NewEstimator(res.Hosts.Graph, mass.Options{Solver: solver, Gamma: e.prm.Gamma})
		if err != nil {
			return err
		}
		defer es.Close()
		west, err := es.EstimateFromCoreWarm(newCore, warm)
		if err == nil {
			warmSolveMS = append(warmSolveMS, float64(west.SolveStats.WallTime)/1e6)
		}
		return err
	})
	if err != nil {
		return err
	}
	put("mass.warm_estimate_ms", ms, "ms")
	put("pagerank.warm_solve_ms", warmSolveMS, "ms")
	snap, est, h, g, res = nil, nil, nil, nil, nil
	store = nil
	runtime.GC()

	// The WAL: Append writes a record, WaitDurable fsyncs it.
	scratch := filepath.Join(e.build, "runs", fmt.Sprintf("ladder-%d", os.Getpid()))
	_ = os.RemoveAll(scratch)
	defer os.RemoveAll(scratch)
	wp, err := ingest.Open(ingest.Config{Dir: filepath.Join(scratch, "wal")})
	if err != nil {
		return err
	}
	var appendUS, fsyncUS []float64
	for i := 0; i < 40; i++ {
		bb, err := delta.ReadText(bytes.NewReader(cs.bodies[i%len(cs.bodies)]))
		if err != nil {
			return err
		}
		sp := tr.begin("Pipeline.Append", root, 0)
		t0 := time.Now()
		seq, err := wp.Append(bb)
		t1 := time.Now()
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("Pipeline.WaitDurable", root, 0)
		if err := wp.WaitDurable(seq); err != nil {
			return err
		}
		sp.end()
		appendUS = append(appendUS, float64(t1.Sub(t0))/1e3)
		fsyncUS = append(fsyncUS, float64(time.Since(t1))/1e3)
	}
	if err := wp.Close(); err != nil {
		return err
	}
	put("ingest.append_us", appendUS, "us")
	put("ingest.fsync_us", fsyncUS, "us")

	// The pipeline on a copy of the prepared durable directory: load
	// its snapshot, replay the seed's batches, compact.
	dir := filepath.Join(scratch, "durable")
	if err := copyDir(filepath.Join(e.durDir, "wal"), dir); err != nil {
		return err
	}
	pl, err := ingest.Open(ingest.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer pl.Close()
	var baseSnap *serve.Snapshot
	var baseSeq uint64
	ms, err = timed("Pipeline.Latest", slowReps, func() (err error) {
		baseSnap, baseSeq, err = pl.Latest(dcfg, 0)
		if err == nil && baseSnap == nil {
			err = fmt.Errorf("prepared directory holds no snapshot")
		}
		return err
	})
	if err != nil {
		return err
	}
	put("ingest.snapshot_load_ms", ms, "ms")
	var last uint64
	for _, body := range cs.bodies {
		bb, err := delta.ReadText(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if last, err = pl.Append(bb); err != nil {
			return err
		}
		if err := pl.WaitDurable(last); err != nil {
			return err
		}
	}
	apply := serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: solver})
	var recovered *serve.Snapshot
	ms, err = timed("Pipeline.Recover", 1, func() (err error) {
		var n int
		recovered, n, err = pl.Recover(ctx, baseSnap, baseSeq, apply)
		if err == nil && n != len(cs.bodies) {
			err = fmt.Errorf("replayed %d batches, want %d", n, len(cs.bodies))
		}
		return err
	})
	if err != nil {
		return err
	}
	put("ingest.replay_ms_per_batch", []float64{ms[0] / float64(len(cs.bodies))}, "ms")
	pl.MarkApplied(last, recovered)
	ms, err = timed("Pipeline.Compact", 1, pl.Compact)
	if err != nil {
		return err
	}
	put("ingest.compact_ms", ms, "ms")
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	sort.Strings(snaps)
	if len(snaps) == 0 {
		return fmt.Errorf("compaction left no snapshot")
	}
	fi, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		return err
	}
	out["ingest.snapshot_mb"] = float64(fi.Size()) / (1 << 20)
	return nil
}
