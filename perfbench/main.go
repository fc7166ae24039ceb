// Command perfbench is the repository's benchmark: it starts a dyndocd
// fleet (frontend and backends built as cmd/dyndocd builds them) or an
// in-process graph, drives one named workload with an open loop and
// then a closed loop, checks every answer against an oracle that never
// touches an index, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": "U"}, …}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload query-fleet --seed 1 --seconds 30 --trace 0
//
// A wrong answer prints the result with "correct": false and exits 1;
// a run that could not measure (set-up failure, generator fell behind)
// exits 2 without a result. See README.md for the workloads and what
// each metric means on each of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dyncoll/internal/server"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*report, error){
	"query-fleet":   runQueryFleet,
	"churn-durable": runChurnDurable,
	"graph-churn":   runGraphChurn,
}

// env is one run's configuration.
type env struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64 // input size multiplier (1 = the benchmark; tests shrink it)
	rateScale float64 // open-loop rate multiplier; small inputs keep most of the rate
	conns     int     // client connections or goroutines: nproc
	out       string  // spans are written here
	work      string  // this run's working directory (fleet data, snapshots)
	log       io.Writer
	// corrupt, when set, wraps every backend collection (oracle
	// self-test).
	corrupt func(server.Coll) server.Coll
}

func (e *env) scaled(n int) int { return max(1, int(float64(n)*e.scale)) }

// phase is a share of the measured time.
func (e *env) phase(frac float64) time.Duration {
	return time.Duration(frac * e.seconds * float64(time.Second))
}

// setups is how many times a run sets up; setup_s is the median.
func (e *env) setups() int {
	if e.trace {
		return 1
	}
	return 3
}

// restartsPerSetup is how many times a run restarts each set-up it
// then discards; restart_s is the median over all of them. A restart
// takes about 0.1 s and single restarts vary by a quarter on a shared
// host, so the median needs many. They restart the state right after
// the preload, which the seed alone decides; after the measured phases
// the state depends on how much the closed loops got through, and so
// would the restart time.
const restartsPerSetup = 8

func (e *env) spansPath() string {
	return filepath.Join(e.out, "spans-"+e.workload+".json")
}

// report is what a workload measured.
type report struct {
	e2e    map[string]float64
	layers map[string]float64
	extra  map[string]float64 // printed for people, not part of the result line
	total  *tally
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, extra: map[string]float64{}, total: newTally()}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses flags, runs the workload and prints the result; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer, corrupt func(server.Coll) server.Coll) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := fs.String("workload", "query-fleet", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds (open loop, then closed loops)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scale := fs.Float64("scale", 1, "input size multiplier (the benchmark's own tests shrink it)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and temporary run data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	os.MkdirAll(*out, 0o755) // MkdirTemp reports a failure
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		scale: *scale, rateScale: min(1, *scale*4), conns: runtime.NumCPU(), out: *out, work: work,
		log: stderr, corrupt: corrupt}
	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d %s/%s\n",
		e.workload, e.seed, e.seconds, e.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	rep, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 2
	}
	return emit(e, rep, stdout, stderr)
}

// emit prints the metric table and the result line.
func emit(e *env, rep *report, stdout, stderr io.Writer) int {
	defs, vals := endToEnd, rep.e2e
	if e.trace {
		defs, vals = perLayer, rep.layers
	}
	res := resultJSON{
		Attempted: rep.total.attempted.Load(),
		Failed:    rep.total.failed.Load(),
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	rep.total.mu.Lock()
	wrongN, wrong := rep.total.wrongN, rep.total.wrong
	rep.total.mu.Unlock()
	res.Correct = wrongN == 0
	rep.e2e["ok_frac"] = 1 - float64(res.Failed)/float64(max(res.Attempted, 1))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !e.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", e.workload, d.name)
			return 2
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	extra := make([]string, 0, len(rep.extra))
	for k := range rep.extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(stdout, "  (info) %-33s %14.6g\n", k, rep.extra[k])
	}
	for _, w := range wrong {
		fmt.Fprintf(stderr, "WRONG ANSWER: %s\n", w)
	}
	if wrongN > 0 {
		fmt.Fprintf(stderr, "perfbench: %d wrong answer(s)\n", wrongN)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
