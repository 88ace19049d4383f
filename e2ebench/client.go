package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// newConn returns a client that holds at most one connection, so the
// load process's connection count is the number of clients it uses.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// reply is one answer as received.
type reply struct {
	status int
	body   []byte
	err    error
}

func do(c *http.Client, method, url string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil && method == http.MethodPost && strings.Contains(url, "/v1/") {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b, err: err}
}

// getJSON fetches a JSON document into v.
func getJSON(c *http.Client, url string, v any) error {
	r := do(c, http.MethodGet, url, nil)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, r.status)
	}
	return json.Unmarshal(r.body, v)
}

// scrape reads a server's /metrics as name → value, with histograms
// contributing their _sum and _count series.
func scrape(c *http.Client, addr string) (map[string]float64, error) {
	r := do(c, http.MethodGet, "http://"+addr+"/metrics", nil)
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// deltaOf returns after − before for every series in after.
func deltaOf(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
