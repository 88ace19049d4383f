package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"spammass/e2ebench/ref"
)

// The web every workload serves: one generated 1M-host web, fixed so
// that inputs which must not depend on the seed (the routed parity
// probes) stay fixed. The seed draws the request streams and the churn
// batches.
const (
	webHosts  = 1_000_000
	webSeed   = 1
	numShards = 2
	// refTol is the reference solves' L1 stopping bound, far below the
	// program's, so the comparison tolerance is set by the program.
	refTol = 1e-13
	// serverEpsilon and serverMaxIter are the program's solver bounds.
	// They are constants in the binary, not flags, so they are restated
	// here; every other parameter is read from the binary's flag
	// defaults.
	serverEpsilon = 1e-10
	serverMaxIter = 1000
	// churnBatches is the number of batches one churn run submits.
	// Every run submits the same number, so every recovery replays the
	// same suffix of the WAL.
	churnBatches = 2
	// keepSeeds bounds how many seeds' churn inputs stay cached.
	keepSeeds = 8
	// keepKeys bounds how many versions of each keyed cache stay, so
	// that two commits benchmarked in turn in one checkout both keep
	// theirs.
	keepKeys = 2
)

// env locates the checkout, its build directory and the binaries.
type env struct {
	build, inputs  string
	server, genweb string
	prm            ref.Params
	defaults       map[string]string
	// The caches, each keyed by what made it (see keyInputs): the
	// generated web, the reference vectors (with the seeds' churn
	// inputs), and the prepared durable directory.
	webDir, refDir, durDir string
	// Loaded inputs, kept for the life of the process: a traced run
	// and repeat mode reuse them across workloads and runs.
	world     *world
	shards    *shardSet
	churn     *churnSet // of churnSeed only, as each holds a whole web
	churnSeed int64
}

func newEnv(build string) (*env, error) {
	e := &env{
		build:  build,
		inputs: filepath.Join(build, "inputs"),
		server: filepath.Join(build, "bin", "spamserver"),
		genweb: filepath.Join(build, "bin", "genweb"),
	}
	for _, p := range []string{e.server, e.genweb} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("binary missing (build with e2ebench/run.sh): %w", err)
		}
	}
	defs, err := flagDefaults(e.server)
	if err != nil {
		return nil, err
	}
	e.defaults = defs
	num := func(name string) (float64, error) {
		v, err := strconv.ParseFloat(defs[name], 64)
		if err != nil {
			return 0, fmt.Errorf("spamserver -%s default %q: %v", name, defs[name], err)
		}
		return v, nil
	}
	for name, dst := range map[string]*float64{"damping": &e.prm.Damping, "gamma": &e.prm.Gamma, "tau": &e.prm.Tau, "rho": &e.prm.Rho} {
		if *dst, err = num(name); err != nil {
			return nil, err
		}
	}
	e.prm.Tol = refTol
	return e, os.MkdirAll(e.inputs, 0o755)
}

// flagDefaults reads every flag default the binary prints in its usage
// text, so the benchmark follows a changed default without restating
// it.
func flagDefaults(bin string) (map[string]string, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	defs := map[string]string{}
	var cur string
	for _, line := range strings.Split(string(out), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "-") {
			cur = strings.Fields(t)[0][1:]
			defs[cur] = ""
		}
		if i := strings.LastIndex(t, "(default "); i >= 0 && cur != "" {
			defs[cur] = strings.Trim(strings.TrimSuffix(t[i+len("(default "):], ")"), `"`)
		}
	}
	for _, need := range []string{"damping", "gamma", "tau", "rho", "solver-layout", "solver-precision"} {
		if _, ok := defs[need]; !ok {
			return nil, fmt.Errorf("spamserver -h lists no -%s flag", need)
		}
	}
	return defs, nil
}

func (e *env) webPath(ext string) string { return filepath.Join(e.webDir, "web"+ext) }

// fileSum is the SHA-256 of the named files' contents, in order, in hex.
func fileSum(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// key shortens a hash of parts to a directory-name suffix.
func key(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(h[:8])
}

// keyInputs names every cache by what made it, so that a cache made by
// another commit's binaries or flag defaults is never reused:
//   - the web, by the genweb binary;
//   - the reference vectors and the seeds' churn inputs, by the web's
//     contents, the reference parameters (read from spamserver -h) and
//     this benchmark's own binary, which holds the reference estimator
//     and the batch generator;
//   - the durable directory, by the spamserver binary and the web's
//     contents, so it is always made by the binary under test.
//
// The web's contents are hashed once, when it is generated, into its
// "sum" file.
func (e *env) keyInputs(ctx context.Context) error {
	gen, err := fileSum(e.genweb)
	if err != nil {
		return err
	}
	e.webDir = filepath.Join(e.inputs, "web-"+key(gen))
	if err := e.prepareWeb(ctx); err != nil {
		return err
	}
	sum, err := os.ReadFile(filepath.Join(e.webDir, "sum"))
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bench, err := fileSum(self)
	if err != nil {
		return err
	}
	srv, err := fileSum(e.server)
	if err != nil {
		return err
	}
	e.refDir = filepath.Join(e.inputs, "ref-"+key(string(sum), fmt.Sprintf("%+v", e.prm), bench))
	e.durDir = filepath.Join(e.inputs, "durable-"+key(string(sum), srv))
	for _, d := range []string{e.webDir, e.refDir, e.durDir} {
		pruneKeyed(d)
	}
	return os.MkdirAll(e.refDir, 0o755)
}

// pruneKeyed marks dir as the newest of its kind (the directories that
// share its name up to the key) and removes all but the newest
// keepKeys of them.
func pruneKeyed(dir string) {
	now := time.Now()
	_ = os.Chtimes(dir, now, now)
	kind := dir[:strings.LastIndex(dir, "-")+1]
	pruneOldest(kind+"*", keepKeys)
}

// prepared runs fill once per checkout: fill writes into a temporary
// directory, which becomes dir only when fill succeeds, so an
// interrupted preparation is redone rather than half used.
func prepared(dir string, fill func(tmp string) error) error {
	if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
		return nil
	}
	tmp := dir + ".tmp"
	_ = os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := fill(tmp); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
		return err
	}
	_ = os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

// prepareWeb writes the generated web and its 2-shard split.
func (e *env) prepareWeb(ctx context.Context) error {
	return prepared(e.webDir, func(tmp string) error {
		if err := runTool(ctx, e.genweb, "-hosts", strconv.Itoa(webHosts), "-seed", strconv.Itoa(webSeed),
			"-shards", strconv.Itoa(numShards), "-out", filepath.Join(tmp, "web")); err != nil {
			return err
		}
		files, err := filepath.Glob(filepath.Join(tmp, "web.*"))
		if err != nil {
			return err
		}
		sort.Strings(files)
		sum, err := fileSum(files...)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, "sum"), []byte(sum), 0o644)
	})
}

// prepareDurable makes the durable directory the churn workload boots
// from, with the program itself: a cold boot with -wal-dir, then a clean
// SIGTERM, which leaves a snapshot at sequence 0.
func (e *env) prepareDurable() error {
	return prepared(e.durDir, func(tmp string) error {
		wal := filepath.Join(tmp, "wal")
		if err := os.MkdirAll(wal, 0o755); err != nil {
			return err
		}
		t, err := e.bootNode(tmp, "prepare", e.durableFlags(wal))
		if err != nil {
			return err
		}
		t.front.stop()
		snaps, _ := filepath.Glob(filepath.Join(wal, "snap-*"))
		if len(snaps) != 1 {
			return fmt.Errorf("prepared WAL directory holds %d snapshots, want 1", len(snaps))
		}
		return nil
	})
}

func (e *env) serveFlags(graph, names, core string) []string {
	return []string{"-graph", graph, "-names", names, "-core", core}
}

// durableFlags are the churn server's flags: the inputs, the WAL
// directory, and a compaction interval longer than any run, so every
// recovery replays the run's whole suffix.
func (e *env) durableFlags(wal string) []string {
	return append(e.serveFlags(e.webPath(".graph"), e.webPath(".names"), e.webPath(".core")),
		"-wal-dir", wal, "-compact-every", "1h")
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeScores caches reference vectors as little-endian float64s.
func writeScores(path string, s *ref.Scores) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := []uint64{uint64(len(s.P)), uint64(s.Iterations[0]), uint64(s.Iterations[1])}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		f.Close()
		return err
	}
	for _, v := range [][]float64{s.P, s.PCore} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readScores(path string, n int) (*ref.Scores, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	hdr := make([]uint64, 3)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	if int(hdr[0]) != n {
		return nil, fmt.Errorf("%s covers %d nodes, want %d", path, hdr[0], n)
	}
	s := &ref.Scores{P: make([]float64, n), PCore: make([]float64, n), Iterations: [2]int{int(hdr[1]), int(hdr[2])}}
	for _, v := range [][]float64{s.P, s.PCore} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// cachedScores loads a reference from path, computing and caching it
// when absent or when recompute is set.
func cachedScores(path string, g *ref.Graph, core []int32, prm ref.Params, warm *ref.Scores, recompute bool) (*ref.Scores, error) {
	if !recompute {
		if s, err := readScores(path, g.N); err == nil {
			return s, nil
		}
	}
	s, err := ref.Estimate(g, core, prm, warm)
	if err != nil {
		return nil, err
	}
	return s, writeScores(path, s)
}

// world is the base web with its reference answers.
type world struct {
	web   *ref.Web
	n     int
	score *ref.Scores
	// probes are the routed parity probes: fixed hosts, drawn with a
	// constant seed, whose routed answers are compared with the
	// single-node reference only.
	probes []string
}

func (e *env) loadWorld(recompute bool) (*world, error) {
	if e.world != nil && !recompute {
		return e.world, nil
	}
	web, err := ref.LoadWeb(e.webPath(".graph"), e.webPath(".names"), e.webPath(".core"))
	if err != nil {
		return nil, err
	}
	g, _, core := web.Compact()
	s, err := cachedScores(filepath.Join(e.refDir, "ref-base.bin"), g, core, e.prm, nil, recompute)
	if err != nil {
		return nil, err
	}
	w := &world{web: web, n: g.N, score: s}
	rng := rand.New(rand.NewSource(20060912))
	for len(w.probes) < probesPerRound {
		x := rng.Intn(w.n)
		if s.P[x] >= 2 {
			w.probes = append(w.probes, web.Names[x])
		}
	}
	e.world = w
	return w, nil
}

// shardSet is the reference for the shard-local solves the routed
// topology runs: each shard solved alone over its own subgraph.
type shardSet struct {
	n     [numShards]int
	score [numShards]*ref.Scores
	// of[x] and local[x] place base node x in its shard.
	of    []uint8
	local []int32
}

func (e *env) loadShards(w *world, recompute bool) (*shardSet, error) {
	if e.shards != nil && !recompute {
		return e.shards, nil
	}
	ss := &shardSet{of: make([]uint8, w.n), local: make([]int32, w.n)}
	var names [numShards][]string
	for s := 0; s < numShards; s++ {
		p := func(ext string) string { return e.webPath(fmt.Sprintf(".shard%d%s", s, ext)) }
		web, err := ref.LoadWeb(p(".graph"), p(".names"), p(".core"))
		if err != nil {
			return nil, err
		}
		g, _, core := web.Compact()
		sc, err := cachedScores(filepath.Join(e.refDir, fmt.Sprintf("ref-shard%d.bin", s)), g, core, e.prm, nil, recompute)
		if err != nil {
			return nil, err
		}
		ss.n[s], ss.score[s], names[s] = g.N, sc, web.Names
	}
	// Shards keep the hosts' relative order, so one merge pass places
	// every host.
	var pos [numShards]int
	for x, name := range w.web.Names[:w.n] {
		found := false
		for s := 0; s < numShards; s++ {
			if pos[s] < len(names[s]) && names[s][pos[s]] == name {
				ss.of[x], ss.local[x] = uint8(s), int32(pos[s])
				pos[s]++
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("host %s is in no shard file", name)
		}
	}
	e.shards = ss
	return ss, nil
}

// epochRef is the reference for one churn epoch: the live web nodes in
// graph order and their scores.
type epochRef struct {
	nodes []int32 // ascending web nodes
	score *ref.Scores
}

// lookup maps a host to its graph node at this epoch.
func (r *epochRef) lookup(w *ref.Web, name string) (int, bool) {
	x, known := w.Index(name)
	if !known {
		return 0, false
	}
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i] >= x })
	return i, i < len(r.nodes) && r.nodes[i] == x
}

// churnSet is one seed's churn input: the batches, the web after all of
// them, and the reference at every epoch (epochs[k] after k batches).
type churnSet struct {
	batches [][]ref.Op
	bodies  [][]byte
	web     *ref.Web
	epochs  []*epochRef
	touched []string // every host a batch names, in first-seen order
	added   []string
	removed []string
}

// loadChurn generates (or reads back) the seed's batches and computes
// (or reads back) the reference at every epoch. The batches are merged
// by the benchmark's own adjacency code.
func (e *env) loadChurn(w *world, seed int64, recompute bool) (*churnSet, error) {
	if e.churn != nil && e.churnSeed == seed && !recompute {
		return e.churn, nil
	}
	e.churn = nil
	dir := filepath.Join(e.refDir, fmt.Sprintf("seed-%d", seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	now := time.Now()
	_ = os.Chtimes(dir, now, now)
	pruneOldest(filepath.Join(e.refDir, "seed-*"), keepSeeds)
	web, err := ref.LoadWeb(e.webPath(".graph"), e.webPath(".names"), e.webPath(".core"))
	if err != nil {
		return nil, err
	}
	cs := &churnSet{web: web}
	_, nodes, _ := web.Compact()
	cs.epochs = append(cs.epochs, &epochRef{nodes: nodes, score: w.score})
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for k := 1; k <= churnBatches; k++ {
		path := filepath.Join(dir, fmt.Sprintf("batch-%d.delta", k))
		var ops []ref.Op
		if data, err := os.ReadFile(path); err == nil {
			if ops, err = ref.ParseBatch(data); err != nil {
				return nil, err
			}
		} else {
			ops = genBatch(web, rng, seed, k)
			if err := os.WriteFile(path, ref.FormatBatch(ops), 0o644); err != nil {
				return nil, err
			}
		}
		if err := web.Apply(ops); err != nil {
			return nil, fmt.Errorf("batch %d: %w", k, err)
		}
		for _, op := range ops {
			for _, h := range []string{op.Src, op.Dst} {
				if h != "" && !seen[h] {
					seen[h] = true
					cs.touched = append(cs.touched, h)
				}
			}
			switch op.Kind {
			case "+h":
				cs.added = append(cs.added, op.Src)
			case "-h":
				cs.removed = append(cs.removed, op.Src)
			}
		}
		cs.batches = append(cs.batches, ops)
		cs.bodies = append(cs.bodies, ref.FormatBatch(ops))
		g, nodes, core := web.Compact()
		prev := cs.epochs[k-1]
		warm := &ref.Scores{P: make([]float64, g.N), PCore: make([]float64, g.N)}
		for i, x := range nodes {
			j := sort.Search(len(prev.nodes), func(j int) bool { return prev.nodes[j] >= x })
			if j < len(prev.nodes) && prev.nodes[j] == x {
				warm.P[i], warm.PCore[i] = prev.score.P[j], prev.score.PCore[j]
			} else {
				warm.P[i] = 1
			}
		}
		s, err := cachedScores(filepath.Join(dir, fmt.Sprintf("ref-%d.bin", k)), g, core, e.prm, warm, recompute)
		if err != nil {
			return nil, err
		}
		cs.epochs = append(cs.epochs, &epochRef{nodes: nodes, score: s})
	}
	e.churn, e.churnSeed = cs, seed
	return cs, nil
}

// genBatch draws one small batch. Odd batches add a host with four
// out-links and four in-links and remove one non-core host (10 ops);
// even batches only add four edges and remove four (8 ops), so the set
// of hosts, and with it n, stays as it was.
func genBatch(w *ref.Web, rng *rand.Rand, seed int64, k int) []ref.Op {
	base := int32(webHosts)
	used := map[int32]bool{}
	live := func() int32 {
		for {
			x := int32(rng.Intn(int(base)))
			if _, ok := w.Lookup(w.Names[x]); ok && !used[x] {
				return x
			}
		}
	}
	var ops []ref.Op
	if k%2 == 1 {
		name := fmt.Sprintf("churn-s%d-b%d.example", seed, k)
		ops = append(ops, ref.Op{Kind: "+h", Src: name})
		for i := 0; i < 4; i++ {
			x := live()
			used[x] = true
			ops = append(ops, ref.Op{Kind: "+e", Src: name, Dst: w.Names[x]})
		}
		for i := 0; i < 4; i++ {
			x := live()
			used[x] = true
			ops = append(ops, ref.Op{Kind: "+e", Src: w.Names[x], Dst: name})
		}
		isCore := map[int32]bool{}
		for _, c := range w.Core {
			isCore[c] = true
		}
		for {
			x := live()
			if !isCore[x] {
				return append(ops, ref.Op{Kind: "-h", Src: w.Names[x]})
			}
		}
	}
	type edge struct{ x, y int32 }
	chosen := map[edge]bool{}
	for len(chosen) < 4 {
		x, y := live(), live()
		if x == y || w.HasEdge(x, y) || chosen[edge{x, y}] {
			continue
		}
		chosen[edge{x, y}] = true
		used[x], used[y] = true, true
		ops = append(ops, ref.Op{Kind: "+e", Src: w.Names[x], Dst: w.Names[y]})
	}
	for removed := 0; removed < 4; {
		x := live()
		if len(w.Out[x]) == 0 {
			continue
		}
		y := w.Out[x][rng.Intn(len(w.Out[x]))]
		if _, ok := w.Lookup(w.Names[y]); !ok || chosen[edge{x, y}] {
			continue
		}
		chosen[edge{x, y}] = true
		used[x], used[y] = true, true
		ops = append(ops, ref.Op{Kind: "-e", Src: w.Names[x], Dst: w.Names[y]})
		removed++
	}
	return ops
}

// pruneOldest keeps the newest keep of the directories that match
// pattern, by modification time.
func pruneOldest(pattern string, keep int) {
	dirs, _ := filepath.Glob(pattern)
	if len(dirs) <= keep {
		return
	}
	type aged struct {
		path string
		t    time.Time
	}
	var all []aged
	for _, d := range dirs {
		if fi, err := os.Stat(d); err == nil {
			all = append(all, aged{d, fi.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.After(all[j].t) })
	for _, a := range all[keep:] {
		_ = os.RemoveAll(a.path)
	}
}

// serverEpoch reads /admin/status.
func serverEpoch(c *http.Client, addr string) (int64, error) {
	var st struct {
		Epoch int64 `json:"epoch"`
	}
	if err := getJSON(c, "http://"+addr+"/admin/status", &st); err != nil {
		return 0, err
	}
	if st.Epoch <= 0 {
		return 0, errors.New("server reports no epoch")
	}
	return st.Epoch, nil
}
