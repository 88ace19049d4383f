package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"spammass/e2ebench/ref"
)

// read is one open-loop read beside the churn feeder.
type read struct {
	host    string
	hosts   []string
	lat     time.Duration // from when the read was due
	late    time.Duration // how late the generator sent it
	rp      reply
	isBatch bool
}

// openLoop reads at churnReadRate over one connection until stop is
// closed. Each read is timed from when it was due, so a stall also
// counts against the reads queued behind it.
func openLoop(c *http.Client, base string, pick func() string, stop <-chan struct{}, tr *tracer, parent *live) []read {
	period := time.Second / churnReadRate
	start := time.Now()
	var out []read
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		sent := time.Now()
		r := read{late: sent.Sub(due)}
		if i%churnBatchShare == churnBatchShare-1 {
			r.isBatch = true
			for j := 0; j < batchSize; j++ {
				r.hosts = append(r.hosts, pick())
			}
			body, _ := json.Marshal(map[string][]string{"hosts": r.hosts})
			r.rp = do(c, http.MethodPost, base+"/v1/batch", body)
		} else {
			r.host = pick()
			r.rp = do(c, http.MethodGet, base+"/v1/host/"+r.host, nil)
		}
		r.lat = time.Since(due)
		name := "churn " + spanNames["host"]
		if r.isBatch {
			name = "churn " + spanNames["batch"]
		}
		tr.record(name, parent, tr.newOp(), sent, sent.Add(r.lat-r.late))
		out = append(out, r)
	}
}

// runChurn runs the churn workload: a durable boot from the prepared
// snapshot, the seed's batches fed in a closed loop beside open-loop
// reads, then a SIGKILL and a restart on the same WAL directory. The
// measured window is the feeder's, a fixed round of churnBatches
// batches: the reads run exactly while the batches are applied, since
// idle reads after the last batch would change the mix a run measures.
func (e *env) runChurn(seed int64, tr *tracer) (*result, error) {
	res := newResult("churn", seed)
	w, err := e.loadWorld(false)
	if err != nil {
		return nil, err
	}
	cs, err := e.loadChurn(w, seed, false)
	if err != nil {
		return nil, err
	}
	chk := &checker{prm: e.prm}
	epochBasis := func(k int) *basis {
		er := cs.epochs[k]
		return &basis{name: fmt.Sprintf("after %d batches", k), score: er.score, n: len(er.nodes),
			find: func(h string) (int, bool) { return er.lookup(cs.web, h) },
			node: func(i int) int64 { return int64(i) }}
	}
	dir, err := e.runDir("churn")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prepared := filepath.Join(e.durDir, "wal")
	walOf := func(i int) string { return filepath.Join(dir, fmt.Sprintf("wal-%d", i)) }
	boot := func(i int) (*topology, error) {
		return e.bootNode(dir, fmt.Sprintf("durable-%d", i), e.durableFlags(walOf(i)))
	}
	// Every boot starts from a fresh copy of the prepared state; the
	// copy is not timed.
	fresh := func(i int) error { return copyDir(prepared, walOf(i)) }
	repeats := setupRepeats
	if tr != nil {
		repeats = 1
	}
	phase := tr.begin("churn.setup", nil, tr.newOp())
	topo, setups, err := setupTimes(boot, fresh, repeats)
	phase.end()
	if err != nil {
		return nil, err
	}
	defer func() { topo.kill() }()
	res.setSummary("setup_s", summarize(setups, "s"))
	wal := walOf(repeats - 1)

	feed, rd := newConn(), newConn()
	addr := topo.front.addr
	base := "http://" + addr
	e0, err := serverEpoch(feed, addr)
	if err != nil {
		return nil, err
	}
	scr := newScraper(tr, topo.all)
	scr.snap("before")

	// The reader avoids the hosts the batches remove, so every read it
	// sends names a live host.
	gone := map[string]bool{}
	for _, h := range cs.removed {
		gone[h] = true
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := popularity(rng, w.n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.n-1))
	pick := func() string {
		for {
			if h := w.web.Names[perm[zipf.Uint64()]]; !gone[h] {
				return h
			}
		}
	}
	prevProcs := runtime.GOMAXPROCS(1) // as in runReads
	steal0 := stealNow()
	measure := tr.begin("churn.measure", nil, tr.newOp())
	stop := make(chan struct{})
	var reads []read
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = openLoop(rd, base, pick, stop, tr, measure)
	}()
	started := time.Now()
	var acks, visible Timing
	for k, body := range cs.bodies {
		epoch := e0 + int64(k) + 1
		op := tr.newOp()
		bs := tr.begin("churn.batch", measure, op)
		v, ack, vis := feedBatch(feed, base, body, cs.batches[k], epoch, tr, bs)
		bs.end()
		scr.snap(fmt.Sprintf("batch %d", k+1))
		res.count(v, false)
		if v.reason == "" {
			acks = append(acks, ack)
			visible = append(visible, vis)
		}
	}
	close(stop)
	wg.Wait()
	window := time.Since(started)
	res.Notes = append(res.Notes, stealSince(steal0, "measured window"))
	measure.end()
	runtime.GOMAXPROCS(prevProcs)
	final := e0 + int64(len(cs.bodies))

	// The final sample names every touched host plus seeded others, and
	// must match the reference on the final graph.
	sample := append([]string(nil), cs.touched...)
	for len(sample) < len(cs.touched)+200 {
		sample = append(sample, pick())
	}
	unknown := map[string]bool{}
	for _, h := range sample {
		if gone[h] {
			unknown[h] = true
		}
	}
	sampleBody, _ := json.Marshal(map[string][]string{"hosts": sample})
	before := do(feed, http.MethodPost, base+"/v1/batch", sampleBody)
	res.count(chk.checkBatch(before, sample, unknown, final, []*basis{epochBasis(len(cs.bodies))}), false)
	if got, err := serverEpoch(feed, addr); err != nil || got != final {
		res.runErr("after %d batches the server serves epoch %d (%v), want %d", len(cs.bodies), got, err, final)
	}
	hwm1, _, err := usage(topo.all...)
	if err != nil {
		return nil, err
	}
	scr.snap("after")

	// SIGKILL after the last batch, restart on the same WAL directory.
	rs := tr.begin("churn.recover", nil, tr.newOp())
	topo.front.kill()
	killed := time.Now()
	rt, err := e.bootNode(dir, "recovered", e.durableFlags(wal))
	if err != nil {
		return nil, err
	}
	recovered := time.Since(killed)
	topo = rt
	s := rt.front
	rs.end()
	rec := do(feed, http.MethodGet, "http://"+s.addr+"/admin/status", nil)
	var st struct {
		Epoch int64 `json:"epoch"`
	}
	_ = json.Unmarshal(rec.body, &st)
	after := do(feed, http.MethodPost, "http://"+s.addr+"/v1/batch", sampleBody)
	switch {
	case st.Epoch != final:
		res.count(fail(reasonProperty, fmt.Errorf("recovered epoch %d, served %d before the kill", st.Epoch, final)), false)
	case after.err != nil || before.err != nil || !bytes.Equal(after.body, before.body):
		res.count(fail(reasonProperty, fmt.Errorf("sample answers after recovery differ from those before the kill")), false)
	default:
		res.count(verdict{}, false)
	}
	hwm2, _, err := usage(topo.all...)
	if err != nil {
		return nil, err
	}

	// Reads: each must hold at the epoch it names.
	var hostLat, batchLat Timing
	var late []float64
	for _, r := range reads {
		late = append(late, float64(r.late)/1e6)
		var v verdict
		if r.isBatch {
			v = checkBatchAtAnyEpoch(chk, r, e0, final, epochBasis)
			batchLat = append(batchLat, r.lat)
		} else {
			v = checkHostAtAnyEpoch(chk, r, e0, final, epochBasis)
			hostLat = append(hostLat, r.lat)
		}
		res.count(v, false)
	}
	res.setSummary("host_p50_ms", summarize(hostLat.ms(), "ms"))
	res.setSummary("batch_p50_ms", summarize(batchLat.ms(), "ms"))
	res.Summaries["read_rps"] = summarize([]float64{float64(len(reads)) / window.Seconds()}, "req/s")
	res.Metrics["rss_peak_mb"] = max(hwm1, hwm2)
	res.Summaries["ack_ms"] = summarize(acks.ms(), "ms")
	res.Summaries["visible_ms"] = summarize(visible.ms(), "ms")
	res.Summaries["recover_s"] = summarize([]float64{recovered.Seconds()}, "s")
	res.Summaries["lateness_ms"] = summarize(late, "ms")
	res.Notes = append(res.Notes, fmt.Sprintf("%d batches (%d ops), %d open-loop reads at %d/s over %.1f s",
		len(cs.bodies), opsOf(cs.batches), len(reads), churnReadRate, window.Seconds()))
	if tr != nil {
		d := scr.delta("before", "after")
		res.Deltas = d
		n := float64(len(cs.bodies))
		res.Layer["pagerank.warm_iterations"] = d["serve_refresh_iterations_warm_total"] / n
		res.Layer["pagerank.edges_swept_per_batch"] = d["pagerank_edges_swept_total"] / n
		res.Layer["pagerank.refine_pushes_per_batch"] = d["pagerank_refine_pushes_total"] / n
		res.Layer["ingest.fsyncs_per_batch"] = d["ingest_wal_fsyncs_total"] / n
		res.Layer["ingest.wal_bytes_per_batch"] = d["ingest_wal_append_bytes_total"] / n
		if c := d["serve_refresh_seconds_count"]; c > 0 {
			res.Layer["serve.apply_ms"] = d["serve_refresh_seconds_sum"] / c * 1e3
		}
		// Per batch, so that a batch which keeps n fixed (edges only)
		// can be told from one that adds and removes hosts.
		prev := "before"
		for k, ops := range cs.batches {
			cur := fmt.Sprintf("batch %d", k+1)
			bd := scr.delta(prev, cur)
			res.Notes = append(res.Notes, fmt.Sprintf("batch %d (%s): %.0f warm iterations, %.0f edges swept, %.0f refine pushes",
				k+1, batchKind(ops), bd["serve_refresh_iterations_warm_total"], bd["pagerank_edges_swept_total"], bd["pagerank_refine_pushes_total"]))
			prev = cur
		}
	}
	return res, nil
}

// batchKind says whether a batch changes the set of hosts.
func batchKind(ops []ref.Op) string {
	for _, op := range ops {
		if op.Kind == "+h" || op.Kind == "-h" {
			return fmt.Sprintf("%d ops, changes hosts", len(ops))
		}
	}
	return fmt.Sprintf("%d ops, edges only", len(ops))
}

func opsOf(batches [][]ref.Op) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// feedBatch posts one batch and waits until it is visible: the 202
// means the batch is fsynced to the WAL; visible is the first read that
// shows the batch's effect at its epoch, which must be exactly one past
// the previous batch's.
func feedBatch(c *http.Client, base string, body []byte, ops []ref.Op, epoch int64, tr *tracer, parent *live) (verdict, time.Duration, time.Duration) {
	t0 := time.Now()
	rp := do(c, http.MethodPost, base+"/admin/delta", body)
	acked := time.Now()
	tr.record("POST /admin/delta", parent, 0, t0, acked)
	if v := statusOf(rp, http.StatusAccepted); v.reason != "" {
		return v, 0, 0
	}
	// Watch a host the batch touches: the added host for a batch that
	// adds one, else the target of the first added edge.
	watch := ops[0].Src
	for _, op := range ops {
		if op.Kind == "+e" {
			watch = op.Dst
			break
		}
	}
	for _, op := range ops {
		if op.Kind == "+h" {
			watch = op.Src
		}
	}
	ws := tr.begin("wait visible", parent, 0)
	deadline := acked.Add(5 * time.Minute)
	var seen time.Time
	for {
		r := do(c, http.MethodGet, base+"/v1/host/"+watch, nil)
		if r.err != nil {
			ws.end()
			return fail(reasonTransport, r.err), 0, 0
		}
		if r.status == http.StatusOK {
			var rec record
			if err := json.Unmarshal(r.body, &rec); err != nil {
				ws.end()
				return fail(reasonProperty, err), 0, 0
			}
			if rec.Epoch > epoch {
				ws.end()
				return fail(reasonProperty, fmt.Errorf("epoch jumped to %d, want %d", rec.Epoch, epoch)), 0, 0
			}
			if rec.Epoch == epoch {
				seen = time.Now()
				break
			}
		} else if r.status != http.StatusNotFound {
			ws.end()
			return fail(reasonStatus, fmt.Errorf("watching %s: status %d", watch, r.status)), 0, 0
		}
		if time.Now().After(deadline) {
			ws.end()
			return fail(reasonProperty, fmt.Errorf("batch not visible after 5 minutes")), 0, 0
		}
		time.Sleep(pollEvery)
	}
	ws.end()
	// Added hosts must be readable and removed hosts must be gone.
	for _, op := range ops {
		want := 0
		switch op.Kind {
		case "+h":
			want = http.StatusOK
		case "-h":
			want = http.StatusNotFound
		default:
			continue
		}
		if r := do(c, http.MethodGet, base+"/v1/host/"+op.Src, nil); r.status != want {
			return fail(reasonProperty, fmt.Errorf("%s %s: status %d at epoch %d, want %d", op.Kind, op.Src, r.status, epoch, want)), 0, 0
		}
	}
	return verdict{}, acked.Sub(t0), seen.Sub(acked)
}

// checkHostAtAnyEpoch checks a read against the reference of the epoch
// the answer names, which must be one the run served.
func checkHostAtAnyEpoch(chk *checker, r read, e0, final int64, at func(k int) *basis) verdict {
	if v := statusOf(r.rp, http.StatusOK); v.reason != "" {
		return v
	}
	var rec record
	if err := json.Unmarshal(r.rp.body, &rec); err != nil {
		return fail(reasonProperty, err)
	}
	if rec.Epoch < e0 || rec.Epoch > final {
		return fail(reasonProperty, fmt.Errorf("%s: epoch %d outside [%d,%d]", r.host, rec.Epoch, e0, final))
	}
	return chk.checkHost(r.rp, r.host, rec.Epoch, []*basis{at(int(rec.Epoch - e0))})
}

func checkBatchAtAnyEpoch(chk *checker, r read, e0, final int64, at func(k int) *basis) verdict {
	if v := statusOf(r.rp, http.StatusOK); v.reason != "" {
		return v
	}
	var a batchAnswer
	if err := json.Unmarshal(r.rp.body, &a); err != nil {
		return fail(reasonProperty, err)
	}
	if a.Epoch < e0 || a.Epoch > final {
		return fail(reasonProperty, fmt.Errorf("batch epoch %d outside [%d,%d]", a.Epoch, e0, final))
	}
	return chk.checkBatch(r.rp, r.hosts, nil, a.Epoch, []*basis{at(int(a.Epoch - e0))})
}
