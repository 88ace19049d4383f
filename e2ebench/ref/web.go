package ref

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Op is one host-graph mutation in the program's delta text format:
// Kind is "+h", "-h", "+e" or "-e"; Dst is empty for host ops.
type Op struct {
	Kind, Src, Dst string
}

// Web is a named host graph the benchmark mutates with its own code.
// Node i is Names[i]; removed nodes stay in place with Alive false, and
// added hosts are appended.
type Web struct {
	Names []string
	Alive []bool
	Out   [][]int32
	Core  []int32
	index map[string]int32
}

// LoadWeb reads the generator's graph, name and core files.
func LoadWeb(graphPath, namesPath, corePath string) (*Web, error) {
	out, err := ReadOut(graphPath)
	if err != nil {
		return nil, err
	}
	names, err := ReadLines(namesPath)
	if err != nil {
		return nil, err
	}
	if len(names) != len(out) {
		return nil, fmt.Errorf("ref: %d names for %d nodes", len(names), len(out))
	}
	lines, err := ReadLines(corePath)
	if err != nil {
		return nil, err
	}
	core := make([]int32, 0, len(lines))
	for _, l := range lines {
		x, err := strconv.Atoi(l)
		if err != nil || x < 0 || x >= len(out) {
			return nil, fmt.Errorf("ref: %s: bad core node %q", corePath, l)
		}
		core = append(core, int32(x))
	}
	w := &Web{Names: names, Alive: make([]bool, len(names)), Out: out, Core: core,
		index: make(map[string]int32, len(names))}
	for i, name := range names {
		w.Alive[i] = true
		w.index[name] = int32(i)
	}
	return w, nil
}

// ReadLines returns the non-empty lines of a text file.
func ReadLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil, nil
	}
	return lines, nil
}

// Lookup returns the node of a live host.
func (w *Web) Lookup(name string) (int32, bool) {
	x, ok := w.index[name]
	if !ok || !w.Alive[x] {
		return 0, false
	}
	return x, true
}

// Index returns a host's node, live or removed.
func (w *Web) Index(name string) (int32, bool) {
	x, ok := w.index[name]
	return x, ok
}

// HasEdge reports whether x links to y.
func (w *Web) HasEdge(x, y int32) bool {
	for _, z := range w.Out[x] {
		if z == y {
			return true
		}
	}
	return false
}

// Apply merges one batch. It rejects the conflicts the program's delta
// format forbids, so a batch that applies here is a valid input.
func (w *Web) Apply(ops []Op) error {
	node := func(name string, create bool) (int32, error) {
		if x, ok := w.Lookup(name); ok {
			return x, nil
		}
		if !create {
			return 0, fmt.Errorf("ref: unknown host %q", name)
		}
		if _, ok := w.index[name]; ok {
			return 0, fmt.Errorf("ref: host %q was removed earlier", name)
		}
		x := int32(len(w.Names))
		w.Names = append(w.Names, name)
		w.Alive = append(w.Alive, true)
		w.Out = append(w.Out, nil)
		w.index[name] = x
		return x, nil
	}
	for _, op := range ops {
		switch op.Kind {
		case "+h":
			if _, ok := w.index[op.Src]; ok {
				return fmt.Errorf("ref: +h %s: host exists", op.Src)
			}
			if _, err := node(op.Src, true); err != nil {
				return err
			}
		case "-h":
			x, err := node(op.Src, false)
			if err != nil {
				return err
			}
			w.Alive[x] = false
			w.Out[x] = nil
		case "+e", "-e":
			x, err := node(op.Src, op.Kind == "+e")
			if err != nil {
				return err
			}
			y, err := node(op.Dst, op.Kind == "+e")
			if err != nil {
				return err
			}
			if x == y {
				return fmt.Errorf("ref: self-link on %s", op.Src)
			}
			has := w.HasEdge(x, y)
			if op.Kind == "+e" {
				if has {
					return fmt.Errorf("ref: +e %s %s: edge exists", op.Src, op.Dst)
				}
				w.Out[x] = append(w.Out[x][:len(w.Out[x]):len(w.Out[x])], y)
				continue
			}
			if !has {
				return fmt.Errorf("ref: -e %s %s: no such edge", op.Src, op.Dst)
			}
			adj := make([]int32, 0, len(w.Out[x])-1)
			for _, z := range w.Out[x] {
				if z != y {
					adj = append(adj, z)
				}
			}
			w.Out[x] = adj
		default:
			return fmt.Errorf("ref: unknown op kind %q", op.Kind)
		}
	}
	return nil
}

// Compact returns the live hosts as a Graph, the web node of each graph
// node, and the live core in graph IDs.
func (w *Web) Compact() (*Graph, []int32, []int32) {
	id := make([]int32, len(w.Names))
	var nodes []int32
	for x, alive := range w.Alive {
		id[x] = -1
		if alive {
			id[x] = int32(len(nodes))
			nodes = append(nodes, int32(x))
		}
	}
	out := make([][]int32, len(nodes))
	for i, x := range nodes {
		for _, y := range w.Out[x] {
			if w.Alive[y] {
				out[i] = append(out[i], id[y])
			}
		}
	}
	var core []int32
	for _, x := range w.Core {
		if w.Alive[x] {
			core = append(core, id[x])
		}
	}
	return NewGraph(out), nodes, core
}

// FormatBatch renders ops in the program's delta text format.
func FormatBatch(ops []Op) []byte {
	var b bytes.Buffer
	b.WriteString("delta 1\n")
	for _, op := range ops {
		b.WriteString(op.Kind + " " + op.Src)
		if op.Dst != "" {
			b.WriteString(" " + op.Dst)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ParseBatch reads the format FormatBatch writes.
func ParseBatch(data []byte) ([]Op, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] != "delta 1" {
		return nil, fmt.Errorf("ref: batch lacks the delta 1 header")
	}
	var ops []Op
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		switch {
		case len(f) == 2 && (f[0] == "+h" || f[0] == "-h"):
			ops = append(ops, Op{Kind: f[0], Src: f[1]})
		case len(f) == 3 && (f[0] == "+e" || f[0] == "-e"):
			ops = append(ops, Op{Kind: f[0], Src: f[1], Dst: f[2]})
		default:
			return nil, fmt.Errorf("ref: bad batch line %q", l)
		}
	}
	return ops, nil
}

// Ranked is one entry of a reference ranking.
type Ranked struct {
	Host  string
	Value float64
}

// Top returns the n highest values in the serving order: value
// descending, ties by ascending host name. keep filters candidates.
func Top(names []string, value func(i int) float64, keep func(i int) bool, n int) []Ranked {
	var all []Ranked
	for i, name := range names {
		if keep(i) {
			all = append(all, Ranked{name, value(i)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Host < all[j].Host
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
