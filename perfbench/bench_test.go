package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"dyncoll/internal/server"
)

// The benchmark's own tests run every workload end to end at a tiny
// size (go test in this directory; about a minute), check the printed
// result against the metric catalogue, and prove the oracle catches an
// injected wrong answer.

// tinyArgs runs a workload at a twentieth of its size for one second.
func tinyArgs(t *testing.T, workload string, trace bool) []string {
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "0.05", "--out", t.TempDir()}
	if trace {
		args = append(args, "--trace", "1")
	}
	return args
}

// runTiny runs the benchmark in-process and returns its exit code and
// decoded result line.
func runTiny(t *testing.T, args []string, corrupt func(server.Coll) server.Coll) (int, resultJSON, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, corrupt)
	var res resultJSON
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code != 2 {
		t.Fatalf("last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				code, res, stderr := runTiny(t, tinyArgs(t, name, trace), nil)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, stderr)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// countCorrupter wraps every backend collection and adds one to the
// first Count answered anywhere in the fleet.
type countCorrupter struct {
	server.Coll
	done *atomic.Bool
}

func (c countCorrupter) Count(p []byte) int {
	n := c.Coll.Count(p)
	if c.done.CompareAndSwap(false, true) {
		return n + 1
	}
	return n
}

func TestOracleCatchesWrongCount(t *testing.T) {
	for _, name := range []string{"query-fleet", "churn-durable"} {
		t.Run(name, func(t *testing.T) {
			var done atomic.Bool
			corrupt := func(c server.Coll) server.Coll { return countCorrupter{Coll: c, done: &done} }
			code, res, stderr := runTiny(t, tinyArgs(t, name, false), corrupt)
			if !done.Load() {
				t.Fatal("no count reached the corrupted collection")
			}
			if code != 1 || res.Correct {
				t.Fatalf("exit %d, correct %v: the oracle missed the wrong count\n%s", code, res.Correct, stderr)
			}
			if !strings.Contains(stderr, "WRONG ANSWER: count") {
				t.Errorf("stderr does not name the wrong count:\n%s", stderr)
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code, _, _ := runTiny(t, []string{"--workload", "nope", "--out", t.TempDir()}, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue and the
// committed BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, catalogue %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
