package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spammass/e2ebench/ref"
)

// The request stream of lookup and routed is made of rounds. Every
// round holds the same operations by kind and count, so a run of any
// length attempts whole rounds and any fixed per-round failure is the
// same share of every run.
const (
	hostsPerRound   = 900 // GET /v1/host, hosts drawn by Zipf popularity
	probesPerRound  = 50  // GET /v1/host, the fixed routed parity probes
	batchesPerRound = 90  // POST /v1/batch of batchSize uniform names
	batchSize       = 50
	unknownPerBatch = 5   // names no web holds, answered null
	topN            = 100 // GET /v1/top?n=topN, once per metric per round
	zipfS           = 1.1 // Zipf exponent of host popularity
	setupRepeats    = 3   // boots per run; setup_s is their median
	// routedBoots replaces setupRepeats for routed, whose boots take
	// about 3 s: the host p50 of one measured segment moved by 10–15%
	// from boot to boot within a run, so more segments steady the run.
	routedBoots = 5
	// rssRounds is the round of each measured segment after which
	// lookup and routed read the servers' peak memory. The servers'
	// heaps grow with request garbage until a collection, so a peak read
	// at the end of a timed segment would follow how many reads the host
	// let it complete; every segment completes at least this many
	// rounds.
	rssRounds       = 3
	loadConns       = 2
	churnReadRate   = 200 // open-loop reads per second beside the churn feeder
	churnBatchShare = 4   // one read in this many is a /v1/batch
	pollEvery       = 5 * time.Millisecond
	bootTimeout     = 5 * time.Minute
)

var topMetrics = []string{"relmass", "absmass", "pagerank"}

// spanNames names the request span of each kind of read.
var spanNames = map[string]string{
	"host":  "GET /v1/host",
	"probe": "GET /v1/host (parity probe)",
	"batch": "POST /v1/batch",
	"top":   "GET /v1/top",
}

// result is one workload run.
type result struct {
	Workload  string
	Seed      int64
	Attempted int
	Failed    int
	Reasons   map[string]int
	// KnownFault counts the failures that are the routed topology's
	// shard-local solve (the parity probes), a subset of Failed.
	KnownFault int
	Examples   []string
	// RunErrors are checks on the run as a whole (epochs, recovery);
	// any makes the run incorrect.
	RunErrors []string
	Metrics   map[string]float64
	Summaries map[string]Summary
	Notes     []string
	// Layer holds the traced run's per-layer numbers, and Deltas the
	// change of every /metrics series over the measured phase, summed
	// over the topology's processes.
	Layer  map[string]float64
	Deltas map[string]float64
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Reasons: map[string]int{},
		Metrics: map[string]float64{}, Summaries: map[string]Summary{}, Layer: map[string]float64{}}
}

func (r *result) setSummary(name string, s Summary) {
	r.Summaries[name] = s
	r.Metrics[name] = s.Median
}

// count records one checked operation.
func (r *result) count(v verdict, known bool) {
	r.Attempted++
	if v.reason == "" {
		return
	}
	r.Failed++
	r.Reasons[v.reason]++
	if known {
		r.KnownFault++
		return
	}
	if len(r.Examples) < 5 {
		r.Examples = append(r.Examples, v.err.Error())
	}
}

func (r *result) runErr(format string, args ...any) {
	r.RunErrors = append(r.RunErrors, fmt.Sprintf(format, args...))
}

// correct holds when every failure is the known routed fault and every
// run-level check passed.
func (r *result) correct() bool {
	return r.Failed == r.KnownFault && len(r.RunErrors) == 0
}

// op is one read of the lookup/routed stream.
type op struct {
	kind    string // "host", "probe", "batch", "top"
	host    string
	hosts   []string
	unknown map[string]bool
	metric  string
}

// roundOps draws one round of the read stream.
func roundOps(rng *rand.Rand, zipf *rand.Zipf, perm []int32, w *world, seed int64, round int) []op {
	names := w.web.Names
	ops := make([]op, 0, hostsPerRound+probesPerRound+batchesPerRound+len(topMetrics))
	for i := 0; i < hostsPerRound; i++ {
		ops = append(ops, op{kind: "host", host: names[perm[zipf.Uint64()]]})
	}
	for _, p := range w.probes {
		ops = append(ops, op{kind: "probe", host: p})
	}
	for i := 0; i < batchesPerRound; i++ {
		b := op{kind: "batch", unknown: map[string]bool{}}
		for j := 0; j < batchSize-unknownPerBatch; j++ {
			b.hosts = append(b.hosts, names[rng.Intn(w.n)])
		}
		for j := 0; j < unknownPerBatch; j++ {
			u := fmt.Sprintf("unknown-s%d-r%d-%d-%d.invalid", seed, round, i, j)
			b.unknown[u] = true
			b.hosts = append(b.hosts, u)
		}
		rng.Shuffle(len(b.hosts), func(x, y int) { b.hosts[x], b.hosts[y] = b.hosts[y], b.hosts[x] })
		ops = append(ops, b)
	}
	for _, m := range topMetrics {
		ops = append(ops, op{kind: "top", metric: m})
	}
	rng.Shuffle(len(ops), func(x, y int) { ops[x], ops[y] = ops[y], ops[x] })
	return ops
}

// popularity returns a seeded permutation of the base hosts: rank r of
// the Zipf draw is host perm[r].
func popularity(rng *rand.Rand, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// finder looks hosts up in a web's node space.
func finder(w *ref.Web) func(string) (int, bool) {
	return func(name string) (int, bool) {
		x, ok := w.Lookup(name)
		return int(x), ok
	}
}

// topology is the set of processes one run measures.
type topology struct {
	front *server   // the process the load talks to
	all   []*server // every process, for memory and CPU
}

func (t *topology) kill() {
	for _, s := range t.all {
		s.kill()
	}
}

// bootLookup starts one node on the web.
func (e *env) bootLookup(dir string, i int) (*topology, error) {
	return e.bootNode(dir, fmt.Sprintf("node-%d", i),
		e.serveFlags(e.webPath(".graph"), e.webPath(".names"), e.webPath(".core")))
}

// bootNode starts one spamserver node and waits until it is ready.
func (e *env) bootNode(dir, name string, flags []string) (*topology, error) {
	s, err := spawn(e.server, dir, name, flags...)
	if err != nil {
		return nil, err
	}
	if err := s.waitReady(newConn(), bootTimeout); err != nil {
		s.kill()
		return nil, err
	}
	return &topology{front: s, all: []*server{s}}, nil
}

// bootRouted starts one node per shard and the router in front of them.
func (e *env) bootRouted(dir string, i int) (*topology, error) {
	t := &topology{}
	for s := 0; s < numShards; s++ {
		p := func(ext string) string { return e.webPath(fmt.Sprintf(".shard%d%s", s, ext)) }
		sh, err := spawn(e.server, dir, fmt.Sprintf("shard%d-%d", s, i), e.serveFlags(p(".graph"), p(".names"), p(".core"))...)
		if err != nil {
			t.kill()
			return nil, err
		}
		t.all = append(t.all, sh)
	}
	var urls []string
	for _, sh := range t.all {
		if err := sh.waitAddr(bootTimeout); err != nil {
			t.kill()
			return nil, err
		}
		urls = append(urls, "http://"+sh.addr)
	}
	r, err := spawn(e.server, dir, fmt.Sprintf("router-%d", i), "-role=router", "-shards", strings.Join(urls, ";"))
	if err != nil {
		t.kill()
		return nil, err
	}
	t.front = r
	t.all = append(t.all, r)
	if err := r.waitReady(newConn(), bootTimeout); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// runDir makes a scratch directory for one run.
func (e *env) runDir(name string) (string, error) {
	dir := filepath.Join(e.build, "runs", fmt.Sprintf("%s-%d", name, os.Getpid()))
	_ = os.RemoveAll(dir)
	return dir, os.MkdirAll(dir, 0o755)
}

// runReads runs lookup (routed=false) or routed.
func (e *env) runReads(seed int64, dur time.Duration, routed bool, tr *tracer) (*result, error) {
	name := "lookup"
	if routed {
		name = "routed"
	}
	res := newResult(name, seed)
	w, err := e.loadWorld(false)
	if err != nil {
		return nil, err
	}
	chk := &checker{prm: e.prm}
	global := &basis{name: "single-node", find: finder(w.web), score: w.score, n: w.n,
		node: func(i int) int64 { return int64(i) }}
	globalTops := chk.buildTops(func(i int) string { return w.web.Names[i] }, w.n, w.score, topN)
	bases, probeBases := []*basis{global}, []*basis{global}
	tops := []topRef{globalTops}
	if routed {
		ss, err := e.loadShards(w, false)
		if err != nil {
			return nil, err
		}
		local := &ref.Scores{P: make([]float64, w.n), PCore: make([]float64, w.n)}
		maxN := 0
		for x := 0; x < w.n; x++ {
			s := ss.score[ss.of[x]]
			local.P[x], local.PCore[x] = s.P[ss.local[x]], s.PCore[ss.local[x]]
		}
		for _, n := range ss.n {
			maxN = max(maxN, n)
		}
		shardBasis := &basis{name: "shard-local", find: finder(w.web), score: local, n: maxN,
			node: func(i int) int64 { return int64(ss.local[i]) }}
		// A routed answer is correct if it is the global spam mass, and
		// is the known fault if it is its shard's local solve: the fixed
		// parity probes count that fault, every other operation accepts
		// either.
		bases = []*basis{global, shardBasis}
		tops = append(tops, chk.buildTops(func(i int) string { return w.web.Names[i] }, w.n, local, topN))
	}
	dir, err := e.runDir(name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	boot := func(i int) (*topology, error) { return e.bootLookup(dir, i) }
	if routed {
		boot = func(i int) (*topology, error) { return e.bootRouted(dir, i) }
	}
	conns := make([]*http.Client, loadConns)
	for i := range conns {
		conns[i] = newConn()
	}
	rng := rand.New(rand.NewSource(seed))
	perm := popularity(rng, w.n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.n-1))
	var all []roundStats
	var hwms []float64
	var measured, cpuUsed time.Duration
	var segP50 []string // each segment's host p50, in ms
	reads, round := 0, 0

	// segment measures whole rounds on one booted topology until it has
	// spent budget and completed rssRounds rounds.
	segment := func(topo *topology, budget time.Duration) error {
		base := "http://" + topo.front.addr
		var epoch int64 // routed: each shard publishes its own epoch
		if !routed {
			var err error
			if epoch, err = serverEpoch(conns[0], topo.front.addr); err != nil {
				return err
			}
		}
		scr := newScraper(tr, topo.all)
		scr.snap("before")
		_, cpu0, err := usage(topo.all...)
		if err != nil {
			return err
		}
		// Two connections need little CPU from the load process; one
		// processor keeps its threads from crowding the server's two.
		prevProcs := runtime.GOMAXPROCS(1)
		measure := tr.begin(name+".measure", nil, tr.newOp())
		var spent time.Duration
		first := len(all)
		for r := 0; r < rssRounds || spent < budget; r, round = r+1, round+1 {
			ops := roundOps(rng, zipf, perm, w, seed, round)
			replies := make([]reply, len(ops))
			lat := make([]time.Duration, len(ops))
			rs := tr.begin(name+" round", measure, 0)
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < loadConns; c++ {
				wg.Add(1)
				go func(cl *http.Client) {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if i >= len(ops) {
							return
						}
						o := &ops[i]
						t0 := time.Now()
						switch o.kind {
						case "host", "probe":
							replies[i] = do(cl, http.MethodGet, base+"/v1/host/"+o.host, nil)
						case "batch":
							body, _ := json.Marshal(map[string][]string{"hosts": o.hosts})
							replies[i] = do(cl, http.MethodPost, base+"/v1/batch", body)
						case "top":
							replies[i] = do(cl, http.MethodGet, fmt.Sprintf("%s/v1/top?metric=%s&n=%d", base, o.metric, topN), nil)
						}
						lat[i] = time.Since(t0)
						tr.record(name+" "+spanNames[o.kind], rs, tr.newOp(), t0, t0.Add(lat[i]))
					}
				}(conns[c])
			}
			wg.Wait()
			took := time.Since(start)
			spent += took
			st := roundStats{rate: float64(len(ops)) / took.Seconds()}
			rs.end()
			reads += len(ops)
			// Checks run between rounds, outside the measured time, so
			// the client's checking does not compete with the server.
			for i := range ops {
				o := &ops[i]
				switch o.kind {
				case "host":
					v := chk.checkHost(replies[i], o.host, epoch, bases)
					res.count(v, false)
					st.host = append(st.host, lat[i])
				case "probe":
					v := chk.checkHost(replies[i], o.host, epoch, probeBases)
					res.count(v, routed && v.reason == reasonMismatch)
					st.host = append(st.host, lat[i])
				case "batch":
					res.count(chk.checkBatch(replies[i], o.hosts, o.unknown, epoch, bases), false)
					st.batch = append(st.batch, lat[i])
				case "top":
					res.count(chk.checkTop(replies[i], o.metric, topN, epoch, bases, tops), false)
				}
			}
			all = append(all, st)
			if r == rssRounds-1 {
				hwm, _, err := usage(topo.all...)
				if err != nil {
					return err
				}
				hwms = append(hwms, hwm)
			}
		}
		measure.end()
		runtime.GOMAXPROCS(prevProcs)
		measured += spent
		var segHost Timing
		for _, st := range all[first:] {
			segHost = append(segHost, st.host...)
		}
		segP50 = append(segP50, fmt.Sprintf("%.4g", summarize(segHost.ms(), "ms").Median))
		_, cpu1, err := usage(topo.all...)
		if err != nil {
			return err
		}
		cpuUsed += cpu1 - cpu0
		scr.snap("after")
		res.Deltas = scr.delta("before", "after")
		return nil
	}

	// Each boot is followed by a segment of the measured time, so that
	// a run samples the host's load, which drifts over tens of seconds,
	// at points spread over the run's length rather than in one window.
	segments := setupRepeats
	if routed {
		segments = routedBoots
	}
	if tr != nil {
		segments = 1
	}
	var setups []float64
	steal0 := stealNow()
	for i := 0; i < segments; i++ {
		phase := tr.begin(name+".setup", nil, tr.newOp())
		start := time.Now()
		topo, err := boot(i)
		phase.end()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		err = segment(topo, dur/time.Duration(segments))
		topo.kill()
		if err != nil {
			return nil, err
		}
	}
	res.Notes = append(res.Notes, stealSince(steal0, "run, boots included"))
	res.Notes = append(res.Notes, "host p50 of each segment (ms): "+strings.Join(segP50, ", "))
	res.setSummary("setup_s", summarize(setups, "s"))
	res.setSummary("rss_peak_mb", summarize(hwms, "MB"))
	// Latency is taken over every round; each round is a fixed number
	// of reads, so its rate is one sample of reads completed per second.
	var hostLat, batchLat Timing
	var rates []float64
	for _, st := range all {
		hostLat = append(hostLat, st.host...)
		batchLat = append(batchLat, st.batch...)
		rates = append(rates, st.rate)
	}
	res.Summaries["read_rps"] = summarize(rates, "req/s")
	res.setSummary("host_p50_ms", summarize(hostLat.ms(), "ms"))
	res.setSummary("batch_p50_ms", summarize(batchLat.ms(), "ms"))
	res.Notes = append(res.Notes, fmt.Sprintf("boots: %d, each followed by a measured segment; %d rounds of %d reads in %.2f s measured, %d load connections",
		segments, len(all), reads/len(all), measured.Seconds(), loadConns))
	if tr != nil {
		d := res.Deltas
		cpuPerRead := float64(cpuUsed) / 1e3 / float64(reads)
		if routed {
			res.Layer["shard.upstream_per_read"] = d["shard_requests_total"] / float64(reads)
			res.Layer["shard.cpu_us_per_read"] = cpuPerRead
			res.Layer["shard.hedges_total"] = d["shard_hedges_total"]
		} else {
			res.Layer["serve.cpu_us_per_read"] = cpuPerRead
			res.Layer["serve.shed_total"] = d["serve_shed_total"]
		}
	}
	return res, nil
}

// roundStats is one round's read rate and latencies.
type roundStats struct {
	rate        float64
	host, batch Timing
}

// setupTimes boots the topology n times, keeping the last one
// running, and returns the boot times in seconds. before runs ahead of
// each boot, outside the timed interval.
func setupTimes(boot func(i int) (*topology, error), before func(i int) error, n int) (*topology, []float64, error) {
	var times []float64
	var t *topology
	for i := 0; i < n; i++ {
		if t != nil {
			t.kill()
		}
		if before != nil {
			if err := before(i); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if t, err = boot(i); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return t, times, nil
}

// scraper snapshots the /metrics of every process of a topology.
type scraper struct {
	tr    *tracer
	procs []*server
	c     *http.Client
	snaps map[string]map[string]float64
}

func newScraper(tr *tracer, procs []*server) *scraper {
	return &scraper{tr: tr, procs: procs, c: newConn(), snaps: map[string]map[string]float64{}}
}

// snap sums the series over the processes; untraced runs skip it.
func (s *scraper) snap(label string) {
	if s.tr == nil {
		return
	}
	sum := map[string]float64{}
	for _, p := range s.procs {
		m, err := scrape(s.c, p.addr)
		if err != nil {
			continue
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	s.snaps[label] = sum
}

func (s *scraper) delta(a, b string) map[string]float64 { return deltaOf(s.snaps[a], s.snaps[b]) }
