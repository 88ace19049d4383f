package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"spammass/e2ebench/ref"
)

// Failure reasons, in the order an answer is checked.
const (
	reasonTransport = "transport"
	reasonStatus    = "status"
	reasonMismatch  = "mismatch"
	reasonProperty  = "property"
)

var reasons = []string{reasonTransport, reasonStatus, reasonMismatch, reasonProperty}

// record is a served HostRecord.
type record struct {
	Host      string  `json:"host"`
	Node      int64   `json:"node"`
	PageRank  float64 `json:"pagerank"`
	CorePR    float64 `json:"core_pagerank"`
	AbsMass   float64 `json:"abs_mass"`
	RelMass   float64 `json:"rel_mass"`
	Label     string  `json:"label"`
	Evaluated bool    `json:"evaluated"`
	Epoch     int64   `json:"epoch"`
}

type batchAnswer struct {
	Epoch   int64     `json:"epoch"`
	Records []*record `json:"records"`
	Misses  int       `json:"misses"`
}

type topAnswer struct {
	Epoch   int64    `json:"epoch"`
	Metric  string   `json:"metric"`
	Records []record `json:"records"`
}

// basis is one reference the served answers may be held to: scores by
// host name for one solved graph.
type basis struct {
	name  string
	find  func(host string) (int, bool)
	score *ref.Scores
	n     int // nodes of the solved graph, which sets the tolerance
	// node, when set, is the node ID a record must carry.
	node func(i int) int64
}

// checker holds the program's parameters and tolerance.
type checker struct {
	prm ref.Params
}

// propertyErr checks what a record must satisfy on its own: M̃ = p − p′,
// m̃ = 1 − p′/p to float tolerance, and the Algorithm 2 label and
// examined flag at the server's τ and ρ.
func (c *checker) propertyErr(r *record) error {
	for _, v := range []float64{r.PageRank, r.CorePR, r.AbsMass, r.RelMass} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: non-finite score", r.Host)
		}
	}
	if math.Abs(r.AbsMass-(r.PageRank-r.CorePR)) > 1e-12*math.Max(1, math.Abs(r.PageRank)) {
		return fmt.Errorf("%s: M~ %v != p - p' %v", r.Host, r.AbsMass, r.PageRank-r.CorePR)
	}
	if r.PageRank > 0 && math.Abs(r.RelMass-(1-r.CorePR/r.PageRank)) > 1e-12 {
		return fmt.Errorf("%s: m~ %v != 1 - p'/p %v", r.Host, r.RelMass, 1-r.CorePR/r.PageRank)
	}
	want := "good"
	if r.PageRank >= c.prm.Rho && r.RelMass >= c.prm.Tau {
		want = "spam"
	}
	if r.Label != want {
		return fmt.Errorf("%s: label %q, Algorithm 2 gives %q", r.Host, r.Label, want)
	}
	if r.Evaluated != (r.PageRank >= c.prm.Rho) {
		return fmt.Errorf("%s: evaluated=%v at p=%v", r.Host, r.Evaluated, r.PageRank)
	}
	return nil
}

// matchErr compares a record with a reference: scores within the
// solver's tolerance, and the label equal unless the reference sits
// within tolerance of a threshold.
func (c *checker) matchErr(r *record, b *basis) error {
	i, ok := b.find(r.Host)
	if !ok {
		return fmt.Errorf("%s: not in the %s reference", r.Host, b.name)
	}
	if b.node != nil && r.Node != b.node(i) {
		return fmt.Errorf("%s: node %d, want %d", r.Host, r.Node, b.node(i))
	}
	want := b.score.Record(i, c.prm)
	tol := ref.ScoreTol(b.n, c.prm.Damping, serverEpsilon, refTol)
	slack := func(v float64) float64 { return tol + 1e-12*math.Abs(v) }
	if math.Abs(r.PageRank-want.P) > slack(want.P) || math.Abs(r.CorePR-want.PCore) > slack(want.PCore) {
		return fmt.Errorf("%s: p %v p' %v, %s reference %v %v (tol %.2g)", r.Host, r.PageRank, r.CorePR, b.name, want.P, want.PCore, tol)
	}
	rt := ref.RelTol(want.P, want.PCore, slack(want.P))
	if math.Abs(r.RelMass-want.RelMass) > rt {
		return fmt.Errorf("%s: m~ %v, %s reference %v", r.Host, r.RelMass, b.name, want.RelMass)
	}
	nearRho := math.Abs(want.P-c.prm.Rho) <= slack(want.P)
	nearTau := math.Abs(want.RelMass-c.prm.Tau) <= rt
	if r.Label != want.Label && !nearRho && !nearTau {
		return fmt.Errorf("%s: label %q, %s reference %q", r.Host, r.Label, b.name, want.Label)
	}
	return nil
}

// verdict is the outcome of one checked operation.
type verdict struct {
	reason string // "" when the answer passed
	err    error
}

func fail(reason string, err error) verdict { return verdict{reason, err} }

// against checks a record's properties and its match with the first
// basis that accepts it.
func (c *checker) against(r *record, bases []*basis) verdict {
	if err := c.propertyErr(r); err != nil {
		return fail(reasonProperty, err)
	}
	var first error
	for _, b := range bases {
		err := c.matchErr(r, b)
		if err == nil {
			return verdict{}
		}
		if first == nil {
			first = err
		}
	}
	return fail(reasonMismatch, first)
}

// checkHost checks a GET /v1/host answer for a known host.
func (c *checker) checkHost(rp reply, host string, epoch int64, bases []*basis) verdict {
	if v := statusOf(rp, 200); v.reason != "" {
		return v
	}
	var r record
	if err := json.Unmarshal(rp.body, &r); err != nil {
		return fail(reasonProperty, fmt.Errorf("host answer: %v", err))
	}
	if r.Host != host {
		return fail(reasonProperty, fmt.Errorf("asked for %s, answer names %s", host, r.Host))
	}
	if epoch > 0 && r.Epoch != epoch {
		return fail(reasonProperty, fmt.Errorf("%s: epoch %d, want %d", host, r.Epoch, epoch))
	}
	return c.against(&r, bases)
}

func statusOf(rp reply, want int) verdict {
	if rp.err != nil {
		return fail(reasonTransport, rp.err)
	}
	if rp.status != want {
		return fail(reasonStatus, fmt.Errorf("status %d, want %d: %.200s", rp.status, want, rp.body))
	}
	return verdict{}
}

// checkBatch checks a POST /v1/batch answer: aligned with the request,
// null exactly for the unknown names, every record from the answer's
// epoch.
func (c *checker) checkBatch(rp reply, hosts []string, unknown map[string]bool, epoch int64, bases []*basis) verdict {
	if v := statusOf(rp, 200); v.reason != "" {
		return v
	}
	var a batchAnswer
	if err := json.Unmarshal(rp.body, &a); err != nil {
		return fail(reasonProperty, fmt.Errorf("batch answer: %v", err))
	}
	if epoch > 0 && a.Epoch != epoch {
		return fail(reasonProperty, fmt.Errorf("batch epoch %d, want %d", a.Epoch, epoch))
	}
	if len(a.Records) != len(hosts) {
		return fail(reasonProperty, fmt.Errorf("batch of %d answered with %d records", len(hosts), len(a.Records)))
	}
	misses := 0
	for i, r := range a.Records {
		if unknown[hosts[i]] {
			misses++
			if r != nil {
				return fail(reasonProperty, fmt.Errorf("unknown host %s answered", hosts[i]))
			}
			continue
		}
		if r == nil {
			return fail(reasonProperty, fmt.Errorf("known host %s answered null", hosts[i]))
		}
		if r.Host != hosts[i] {
			return fail(reasonProperty, fmt.Errorf("record %d names %s, asked %s", i, r.Host, hosts[i]))
		}
		if r.Epoch != a.Epoch {
			return fail(reasonProperty, fmt.Errorf("record %s from epoch %d in a batch of epoch %d", r.Host, r.Epoch, a.Epoch))
		}
		if v := c.against(r, bases); v.reason != "" {
			return v
		}
	}
	if a.Misses != misses {
		return fail(reasonProperty, fmt.Errorf("batch reports %d misses, %d unknown", a.Misses, misses))
	}
	return verdict{}
}

// topRef is a reference ranking per metric.
type topRef map[string][]ref.Ranked

func rankValue(r *record, metric string) float64 {
	switch metric {
	case "relmass":
		return r.RelMass
	case "absmass":
		return r.AbsMass
	}
	return r.PageRank
}

// buildTops computes the reference rankings of one basis.
func (c *checker) buildTops(names func(i int) string, n int, s *ref.Scores, top int) topRef {
	out := topRef{}
	all := make([]string, n)
	for i := range all {
		all[i] = names(i)
	}
	for _, metric := range topMetrics {
		metric := metric
		value := func(i int) float64 {
			rec := s.Record(i, c.prm)
			return rankValue(&record{PageRank: rec.P, AbsMass: rec.AbsMass, RelMass: rec.RelMass}, metric)
		}
		keep := func(i int) bool { return metric != "relmass" || s.P[i] >= c.prm.Rho }
		out[metric] = ref.Top(all, value, keep, top)
	}
	return out
}

// checkTop checks a GET /v1/top answer: n records in serving order
// (metric non-increasing, ties by host name), each a valid record, and
// position by position equal to a reference top n up to ties within
// tolerance.
func (c *checker) checkTop(rp reply, metric string, n int, epoch int64, bases []*basis, tops []topRef) verdict {
	if v := statusOf(rp, 200); v.reason != "" {
		return v
	}
	var a topAnswer
	if err := json.Unmarshal(rp.body, &a); err != nil {
		return fail(reasonProperty, fmt.Errorf("top answer: %v", err))
	}
	if a.Metric != metric || len(a.Records) != n {
		return fail(reasonProperty, fmt.Errorf("top %s: got metric %q with %d records, want %d", metric, a.Metric, len(a.Records), n))
	}
	if epoch > 0 && a.Epoch != epoch {
		return fail(reasonProperty, fmt.Errorf("top %s: epoch %d, want %d", metric, a.Epoch, epoch))
	}
	ordered := sort.SliceIsSorted(a.Records, func(i, j int) bool {
		vi, vj := rankValue(&a.Records[i], metric), rankValue(&a.Records[j], metric)
		if vi != vj {
			return vi > vj
		}
		return a.Records[i].Host < a.Records[j].Host
	})
	if !ordered {
		return fail(reasonProperty, fmt.Errorf("top %s is not in serving order", metric))
	}
	var first error
	for k, b := range bases {
		err := c.topMatch(&a, metric, b, tops[k][metric])
		if err == nil {
			return verdict{}
		}
		if first == nil {
			first = err
		}
	}
	return fail(reasonMismatch, first)
}

func (c *checker) topMatch(a *topAnswer, metric string, b *basis, want []ref.Ranked) error {
	if len(want) < len(a.Records) {
		return fmt.Errorf("reference ranks only %d hosts", len(want))
	}
	tol := 2 * ref.ScoreTol(b.n, c.prm.Damping, serverEpsilon, refTol)
	for i := range a.Records {
		r := &a.Records[i]
		if err := c.propertyErr(r); err != nil {
			return err
		}
		if err := c.matchErr(r, b); err != nil {
			return err
		}
		j, _ := b.find(r.Host)
		rec := b.score.Record(j, c.prm)
		got := rankValue(&record{PageRank: rec.P, AbsMass: rec.AbsMass, RelMass: rec.RelMass}, metric)
		t := tol
		if metric == "relmass" {
			t = ref.RelTol(rec.P, rec.PCore, tol)
		}
		if r.Host != want[i].Host && math.Abs(got-want[i].Value) > t {
			return fmt.Errorf("top %s position %d: %s (%v), %s reference has %s (%v)", metric, i, r.Host, got, b.name, want[i].Host, want[i].Value)
		}
	}
	return nil
}
