// Command e2ebench is the repository benchmark. It builds nothing
// itself: e2ebench/run.sh builds the shipped spamserver and genweb
// binaries and this program from the checkout, then runs it. It drives
// the real binary over loopback HTTP with default flags on seeded
// generated inputs, checks every answer against an independent
// reference estimator (package ref) and the method's own properties,
// and prints every metric by name and unit.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload lookup|routed|churn --seed N --seconds S [--trace 0|1]
//	bash e2ebench/run.sh repeat --workload W --n 10 [--seed N] [--seconds S]
//	bash e2ebench/run.sh refs [--seed N]
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics,
// or with --trace 1 the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the metrics every untraced run prints, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"host_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
}

// reported are figures every report prints beside the end-to-end
// metrics but that no run can bound: read_rps moved by a quarter and
// more between runs of the same code on a shared 2-core host, and the
// churn-only figures exist on one workload (the traced run gives them
// as per-layer metrics).
var reported = []string{"read_rps", "ack_ms", "visible_ms", "recover_s", "lateness_ms"}

// perLayer are the metrics a traced run prints, in order. Each is
// listed in README.md with the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"graph.load_ms", "ms"},
	{"pagerank.cold_iterations", "count"},
	{"pagerank.cold_solve_ms", "ms"},
	{"pagerank.warm_iterations", "count"},
	{"pagerank.warm_solve_ms", "ms"},
	{"pagerank.edges_swept_per_batch", "count"},
	{"pagerank.refine_pushes_per_batch", "count"},
	{"mass.cold_estimate_ms", "ms"},
	{"mass.warm_estimate_ms", "ms"},
	{"delta.merge_ms", "ms"},
	{"serve.snapshot_build_ms", "ms"},
	{"serve.publish_us", "us"},
	{"serve.apply_ms", "ms"},
	{"serve.visible_gap_ms", "ms"},
	{"serve.visible_p50_ms", "ms"},
	{"serve.snapshot_lookup_ns", "ns"},
	{"serve.handler_host_us", "us"},
	{"serve.http_hop_us", "us"},
	{"serve.allocs_per_host", "count"},
	{"serve.handler_batch_us", "us"},
	{"serve.cpu_us_per_read", "us"},
	{"serve.shed_total", "count"},
	{"ingest.ack_p50_ms", "ms"},
	{"ingest.recover_s", "s"},
	{"ingest.append_us", "us"},
	{"ingest.fsync_us", "us"},
	{"ingest.fsyncs_per_batch", "count"},
	{"ingest.wal_bytes_per_batch", "bytes"},
	{"ingest.snapshot_load_ms", "ms"},
	{"ingest.replay_ms_per_batch", "ms"},
	{"ingest.compact_ms", "ms"},
	{"ingest.snapshot_mb", "MB"},
	{"shard.overhead_us", "us"},
	{"shard.upstream_per_read", "count"},
	{"shard.cpu_us_per_read", "us"},
	{"shard.hedges_total", "count"},
	{"shard.merge_top_us", "us"},
}

var workloads = []string{"lookup", "routed", "churn"}

func main() {
	// The load process keeps every answer of a round until it is
	// checked; a higher GC target keeps collection out of the rounds.
	debug.SetGCPercent(400)
	code := run()
	stopAll()
	os.Exit(code)
}

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	build := fs.String("build", ".bench_build", "build and cache directory")
	workload := fs.String("workload", "", "lookup, routed or churn")
	seed := fs.Int64("seed", 1, "seed of the request streams and churn batches")
	seconds := fs.Int("seconds", 8, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs every workload traced and prints the per-layer metrics")
	n := fs.Int("n", 10, "repeat: number of runs, with seeds seed, seed+1, …")
	// The mode is the first argument that is not a flag; flags may
	// stand on either side of it.
	mode := "run"
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		mode = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil || fs.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "e2ebench: one mode at most: run, repeat or refs")
			return 2
		}
	}
	// An interrupt stops every server before the benchmark exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		fmt.Fprintln(os.Stderr, "e2ebench: interrupted")
		os.Exit(1)
	}()
	ctx := context.Background()
	e, err := newEnv(*build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := e.prepare(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: preparing inputs:", err)
		return 1
	}
	dur := time.Duration(*seconds) * time.Second
	switch mode {
	case "refs":
		return e.refs(*seed)
	case "repeat":
		return e.repeat(*workload, *seed, *n, dur)
	case "run":
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown mode %q\n", mode)
		return 2
	}
	if !validWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "e2ebench: --workload must be one of %v\n", workloads)
		return 2
	}
	if *trace == 1 {
		return e.traced(ctx, *workload, *seed, dur)
	}
	res, err := e.runOne(*workload, *seed, dur, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	e.report(os.Stdout, res)
	e.save(res)
	metrics := map[string]metricValue{}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: %s produced no %s\n", res.Workload, m.name)
			return 1
		}
		metrics[m.name] = metricValue{v, m.unit}
	}
	return emit(res.correct(), res.Attempted, res.Failed, metrics)
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if w == x {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line and returns the exit code.
func emit(correct bool, attempted, failed int, metrics map[string]metricValue) int {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// prepare makes the seed-independent inputs once per checkout and
// binary version.
func (e *env) prepare(ctx context.Context) error {
	if err := e.keyInputs(ctx); err != nil {
		return err
	}
	cached := true
	for _, f := range []string{"ref-base.bin", "ref-shard0.bin", "ref-shard1.bin"} {
		if _, err := os.Stat(filepath.Join(e.refDir, f)); err != nil {
			cached = false
		}
	}
	if !cached {
		w, err := e.loadWorld(false)
		if err != nil {
			return err
		}
		if _, err := e.loadShards(w, false); err != nil {
			return err
		}
	}
	return e.prepareDurable()
}

func (e *env) runOne(workload string, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	switch workload {
	case "lookup":
		return e.runReads(seed, dur, false, tr)
	case "routed":
		return e.runReads(seed, dur, true, tr)
	}
	return e.runChurn(seed, tr)
}

// refs recomputes every cached reference vector for the seed.
func (e *env) refs(seed int64) int {
	w, err := e.loadWorld(true)
	if err == nil {
		_, err = e.loadShards(w, true)
	}
	if err == nil {
		_, err = e.loadChurn(w, seed, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: refs:", err)
		return 1
	}
	fmt.Printf("reference vectors recomputed: base (%d+%d Jacobi iterations), %d shards, %d churn epochs for seed %d\n",
		w.score.Iterations[0], w.score.Iterations[1], numShards, churnBatches, seed)
	return 0
}

// repeat runs a workload n times with consecutive seeds and prints the
// median and quartiles of every metric, the figures the bounds in
// BENCHMARK.json are set from.
func (e *env) repeat(workload string, seed int64, n int, dur time.Duration) int {
	if !validWorkload(workload) {
		fmt.Fprintf(os.Stderr, "e2ebench: --workload must be one of %v\n", workloads)
		return 2
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < n; i++ {
		res, err := e.runOne(workload, seed+int64(i), dur, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		e.save(res)
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d", i+1, res.Seed, res.correct(), res.Attempted, res.Failed)
		for _, m := range endToEnd {
			values[m.name] = append(values[m.name], res.Metrics[m.name])
			fmt.Printf(" %s=%.4g", m.name, res.Metrics[m.name])
		}
		for _, k := range reported {
			if s, ok := res.Summaries[k]; ok {
				values[k] = append(values[k], s.Median)
				fmt.Printf(" %s=%.4g", k, s.Median)
			}
		}
		fmt.Println()
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
	}
	fmt.Printf("\n%s, %d runs, seeds %d..%d\n%-16s %12s %12s %12s %10s\n", workload, n, seed, seed+int64(n)-1,
		"metric", "median", "q1", "q3", "iqr/median")
	for _, name := range append(metricNames(endToEnd), reported...) {
		v, ok := values[name]
		if !ok {
			continue
		}
		if len(v) < 2 {
			continue
		}
		q1, med, q3 := quartiles(sortedCopy(v))
		fmt.Printf("%-16s %12.5g %12.5g %12.5g %10.4f\n", name, med, q1, q3, (q3-q1)/med)
	}
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(shares, " "))
	return 0
}

func metricNames(ms []struct{ name, unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

// traced runs every workload with spans and /metrics deltas, then the
// in-process ladder, and prints the per-layer metrics. Its attempted
// and failed counts are those of the named workload.
func (e *env) traced(ctx context.Context, workload string, seed int64, dur time.Duration) int {
	tr := newTracer()
	layer := map[string]float64{}
	summaries := map[string]Summary{}
	results := map[string]*result{}
	correct := true
	for _, w := range workloads {
		res, err := e.runOne(w, seed, dur, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		results[w] = res
		correct = correct && res.correct()
		for k, v := range res.Layer {
			layer[k] = v
		}
	}
	w := results["churn"]
	cs, err := e.loadChurn(e.world, seed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := e.ladder(ctx, cs, tr, layer, summaries); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: ladder:", err)
		return 1
	}
	us := func(r *result) float64 { return r.Metrics["host_p50_ms"] * 1e3 }
	layer["serve.http_hop_us"] = us(results["lookup"]) - layer["serve.handler_host_us"]
	layer["shard.overhead_us"] = us(results["routed"]) - us(results["lookup"])
	layer["serve.visible_p50_ms"] = w.Summaries["visible_ms"].Median
	layer["serve.visible_gap_ms"] = w.Summaries["visible_ms"].Median - layer["serve.apply_ms"]
	layer["ingest.ack_p50_ms"] = w.Summaries["ack_ms"].Median
	layer["ingest.recover_s"] = w.Summaries["recover_s"].Median

	out := os.Stdout
	for _, name := range workloads {
		e.report(out, results[name])
	}
	fmt.Fprintf(out, "\ntraced end-to-end numbers beside the last untraced run of the same seed (difference = tracing overhead)\n")
	fmt.Fprintf(out, "%-8s %-14s %14s %14s %9s\n", "workload", "metric", "traced", "untraced", "diff")
	for _, name := range workloads {
		base := e.load(name, seed)
		for _, m := range endToEnd {
			tv := results[name].Metrics[m.name]
			if base == nil {
				fmt.Fprintf(out, "%-8s %-14s %14.5g %14s %9s\n", name, m.name, tv, "not run", "")
				continue
			}
			uv := base.Metrics[m.name]
			fmt.Fprintf(out, "%-8s %-14s %14.5g %14.5g %+8.1f%%\n", name, m.name, tv, uv, 100*(tv-uv)/uv)
		}
	}
	for _, name := range workloads {
		d := results[name].Deltas
		keys := make([]string, 0, len(d))
		for k, v := range d {
			if v != 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprintf(out, "\n%s: /metrics deltas over the measured phase\n", name)
		for _, k := range keys {
			fmt.Fprintf(out, "  %-44s %14.6g\n", k, d[k])
		}
	}
	fmt.Fprintf(out, "\nper-layer metrics\n")
	metrics := map[string]metricValue{}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: traced run produced no %s\n", m.name)
			return 1
		}
		metrics[m.name] = metricValue{v, m.unit}
		detail := ""
		if s, ok := summaries[m.name]; ok && s.N > 1 {
			detail = s.String()
		}
		fmt.Fprintf(out, "%-34s %14.6g %-6s %s\n", m.name, v, m.unit, detail)
	}
	fmt.Fprintf(out, "\nspan self times (span duration minus the part its children cover)\n")
	printSelfTimes(out, tr)
	dir := filepath.Join(e.build, "traces")
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d-%d.json", workload, seed, time.Now().Unix()))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		err = tr.write(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	r := results[workload]
	return emit(correct, r.Attempted, r.Failed, metrics)
}

// save keeps an untraced result for the traced run to compare with.
func (e *env) save(r *result) {
	dir := filepath.Join(e.build, "results")
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	data, err := json.Marshal(r)
	if err == nil {
		_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)), data, 0o644)
	}
}

func (e *env) load(workload string, seed int64) *result {
	data, err := os.ReadFile(filepath.Join(e.build, "results", fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return nil
	}
	var r result
	if json.Unmarshal(data, &r) != nil {
		return nil
	}
	return &r
}

// report prints one run: host facts, operations, every metric.
func (e *env) report(out *os.File, r *result) {
	fmt.Fprintf(out, "\n== %s, seed %d\n", r.Workload, r.Seed)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s, build dir on %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(e.build))
	fmt.Fprintf(out, "program: spamserver with default flags (solver-layout %s, solver-precision %s, damping %v, gamma %v, tau %v, rho %v)\n",
		e.defaults["solver-layout"], e.defaults["solver-precision"], e.prm.Damping, e.prm.Gamma, e.prm.Tau, e.prm.Rho)
	for _, note := range r.Notes {
		fmt.Fprintf(out, "run: %s\n", note)
	}
	fmt.Fprintf(out, "operations: attempted %d, failed %d", r.Attempted, r.Failed)
	var parts []string
	for _, k := range reasons {
		parts = append(parts, fmt.Sprintf("%s %d", k, r.Reasons[k]))
	}
	fmt.Fprintf(out, " (%s)", strings.Join(parts, ", "))
	if r.KnownFault > 0 {
		fmt.Fprintf(out, "; %d of them are the routed parity probes that differ from the single-node reference (shard-local solve, a known fault)", r.KnownFault)
	}
	fmt.Fprintln(out)
	for _, ex := range r.Examples {
		fmt.Fprintf(out, "  failure: %s\n", ex)
	}
	for _, re := range r.RunErrors {
		fmt.Fprintf(out, "  run check failed: %s\n", re)
	}
	for _, m := range endToEnd {
		detail := ""
		if s, ok := r.Summaries[m.name]; ok {
			detail = s.String()
		}
		fmt.Fprintf(out, "  %-14s %14.6g %-6s %s\n", m.name, r.Metrics[m.name], m.unit, detail)
	}
	for _, k := range reported {
		if s, ok := r.Summaries[k]; ok {
			fmt.Fprintf(out, "  %-14s %14.6g %-6s %s\n", k, s.Median, s.Unit, s.String())
		}
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown CPU"
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem 0x%x", st.Type)
}
