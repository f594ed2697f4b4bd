package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one traffic mix the benchmark runs. Live workloads drive the
// in-process TCP cluster with the open-loop client; sim-verify streams a
// closed-loop simulation through the online monitor. Why is BENCHMARK.json's
// and filled in when the workload is looked up there.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Live bool   `json:"live"`

	// Live workloads.
	Registers  int     `json:"registers,omitempty"`
	WriteRatio float64 `json:"write_ratio"`
	ZipfS      float64 `json:"zipf_s,omitempty"`
	// Rate is the fixed phase's offered load, ops/s.
	Rate float64 `json:"rate_ops_s,omitempty"`
	// LimitMS is the latency limit: an op slower than this misses it for
	// goodput, and a capacity probe passes only if its all-op p99 stays
	// within it.
	LimitMS float64 `json:"latency_limit_ms,omitempty"`

	// sim-verify.
	SimOps int `json:"sim_ops_per_rep,omitempty"`
}

var workloads = []workload{
	{
		Name: "live-read",
		Live: true, Registers: 64, WriteRatio: 0.1, ZipfS: 1.1,
		Rate: 8000, LimitMS: 25,
	},
	{
		Name: "live-write",
		Live: true, Registers: 64, WriteRatio: 0.9, ZipfS: 1.1,
		Rate: 4000, LimitMS: 50,
	},
	{
		Name:       "sim-verify",
		WriteRatio: 0.1, SimOps: 150000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The model's constants, as pscserve runs them.
const (
	nodes     = 3
	epsWall   = 200 * time.Microsecond
	d2Wall    = 5 * time.Millisecond
	deltaWall = 100 * time.Microsecond
	cWall     = 0
	ellWall   = 5 * time.Millisecond
	slackWall = time.Millisecond
	maxStates = 1 << 18
)

// clientConn is how many client connections a phase opens: one each to
// nodes 0 and 1 (node 2 only replicates), but no more than the host has
// CPUs, so the client never outnumbers the cores it shares.
var clientConn = min(2, runtime.NumCPU())

// layer is one module of the stack and the prediction written down before
// measuring: which end-to-end metrics it should move on which workload, and
// where it should read flat. A per-layer metric of BENCHMARK.json belongs
// to the layer its name starts with ("transport.frames_per_op" to
// transport); one without a layer prefix belongs to service.
type layer struct {
	Name, Module      string
	Moves, On, FlatOn string
}

var layers = []layer{
	{"loadgen", "the benchmark's open-loop client", "validity only", "live-*", ""},
	{"server", "internal/live Server: wire codec, port workers", "cpu_ms_per_kop, read_p99_ms", "live-read", "sim-verify"},
	{"transport", "internal/live TCPTransport", "cpu_ms_per_kop, capacity_ops_s, inmodel_capacity_ops_s", "live-write", "live-read, sim-verify"},
	{"node", "internal/live Runtime loop + internal/register S^c", "read_p99_ms, write_p99_ms", "live-read, live-write", "sim-verify"},
	{"recorder", "internal/live watermark merge", "cpu_ms_per_kop, capacity_ops_s", "live-read", "sim-verify"},
	{"check", "internal/register Monitor + internal/linearize", "sim_ops_s; capacity_ops_s", "sim-verify; live-write", ""},
	{"exec", "internal/exec + internal/core", "sim_ops_s", "sim-verify", "live-read, live-write"},
	{"go", "runtime/metrics", "cpu_ms_per_kop, peak_heap_mb, read_p99_ms", "all", ""},
	{"service", "latency, capacity and wall-clock throughput that on a shared host do not repeat within the largest allowed bound, so they are reported ungated", "", "live-*", ""},
	{"ledger", "the benchmark's attribution of process CPU", "", "live-*", ""},
}

// serviceLayer holds the per-layer metrics whose names carry no layer
// prefix.
const serviceLayer = "service"

// layerOf names the layer a per-layer metric belongs to.
func layerOf(metric string) string {
	if i := strings.IndexByte(metric, '.'); i >= 0 {
		return metric[:i]
	}
	return serviceLayer
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is what the program reads from BENCHMARK.json: each workload's
// reason and every metric's name, unit and direction.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that the program can run what
// it declares: every workload has a configuration here and every
// per-layer metric a layer.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("%s: workload %q has no configuration in perfbench", path, w.Name)
		}
	}
	for _, m := range s.PerLayer {
		if _, ok := findLayer(layerOf(m.Name)); !ok {
			return nil, fmt.Errorf("%s: per-layer metric %q belongs to no layer", path, m.Name)
		}
	}
	return &s, nil
}

// workload returns the named workload's configuration with its reason from
// BENCHMARK.json; ok is false if BENCHMARK.json does not declare it.
func (s *benchSpec) workload(name string) (workload, bool) {
	for _, sw := range s.Workloads {
		if sw.Name == name {
			w, ok := findWorkload(name)
			w.Why = sw.Why
			return w, ok
		}
	}
	return workload{}, false
}

// layerMetrics lists the per-layer metrics of the named layer.
func (s *benchSpec) layerMetrics(name string) []metricSpec {
	var out []metricSpec
	for _, m := range s.PerLayer {
		if layerOf(m.Name) == name {
			out = append(out, m)
		}
	}
	return out
}

func findLayer(name string) (layer, bool) {
	for _, l := range layers {
		if l.Name == name {
			return l, true
		}
	}
	return layer{}, false
}
