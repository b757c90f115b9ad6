// Command perfbench is the repository's end-to-end benchmark. It drives the
// summary-management layers through their public functions — core.System,
// p2p.Transport, gateway.Backend / ServeWire and sim.Engine — on one of three
// workloads, checks the outputs, and prints one JSON result line:
//
//	build  §4.1 domain construction plus three α-gated modification waves
//	       on a 10k-peer Barabási–Albert overlay (sequential event engine)
//	churn  §4.2–4.3 maintenance: a 2 h session-churn replay on 2k peers
//	serve  §5 query answering: the gateway over ServeWire in front of a
//	       data-level domain split across two loopback TCP transports
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation. With -trace 1 it carries the per-layer metrics from a
// separate traced pass: spans around every transport and backend call
// (tracedNet, tracedBackend), runtime/metrics counters, and a CPU profile
// bucketed by package, which is also written to -out.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh -workload build -seed 1 -seconds 36 -trace 0
//
// and its self-test (every workload down-scaled, every check) with
//
//	cd perfbench && go test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	small   bool
	out     string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is what a workload hands back to main.
type report struct {
	e2e, layer metricSet
	attempted  int64
	failed     int64
	failures   []string // failed output checks and exercise assertions
}

func newReport() *report { return &report{e2e: metricSet{}, layer: metricSet{}} }

// check records a failed check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

var workloads = map[string]func(opts) (*report, error){
	"build": runBuild,
	"churn": runChurn,
	"serve": runServe,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: build, churn or serve")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 36, "run length in seconds (serve scales its open loop to it; build and churn measure a fixed workload of about 20 s)")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	small := fs.Bool("small", false, "down-scaled workload sizes (self-test)")
	out := fs.String("out", ".bench_build/results", "directory for traced-run results and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload build|churn|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, small: *small, out: *out}
	res, code, err := runWorkload(*name, wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	return code
}

// runWorkload runs one workload and shapes its result line; the exit code
// is 1 when an output check or exercise assertion failed.
func runWorkload(name string, wl func(opts) (*report, error), o opts) (result, int, error) {
	mach, _ := json.Marshal(machine())
	fmt.Printf("machine %s\n", mach)
	if o.trace {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return result{}, 0, err
		}
	}
	rep, err := wl(o)
	if err != nil {
		return result{}, 0, err
	}
	table, got := e2eMetrics, rep.e2e
	if o.trace {
		table, got = layerMetrics, rep.layer
	}
	metrics, err := complete(table, got)
	if err != nil {
		return result{}, 0, err
	}
	res := result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}
	if o.trace {
		if err := writeJSON(fmt.Sprintf("%s/%s-seed%d.json", o.out, name, o.seed), res); err != nil {
			return result{}, 0, err
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, f)
	}
	if !res.Correct {
		return res, 1, nil
	}
	return res, 0, nil
}

// complete returns exactly the metrics of table: a workload that does not
// exercise a layer reports it as 0, and a metric outside the table or
// with another unit is a benchmark bug.
func complete(table []metricDef, got metricSet) (metricSet, error) {
	out := metricSet{}
	for _, d := range table {
		m, ok := got[d.name]
		if !ok {
			m = metric{0, d.unit}
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s: unit %q, table says %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s: not a number", d.name)
		}
		out[d.name] = m
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// machine is the hardware and toolchain the run measured on.
func machine() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// passes times timedSetups set-ups of the first input back to back, then
// runs one measured pass per input, each on a fresh (untimed) set-up. It
// returns the set-up times and each pass's peak resident memory.
func passes(inputs, timedSetups int, setup func(input int) error, pass func() error) ([]time.Duration, []float64, error) {
	var setups []time.Duration
	runtime.GC()
	for i := 0; i < timedSetups; i++ {
		start := time.Now()
		if err := setup(0); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start))
	}
	var peaks []float64
	for in := 0; in < inputs; in++ {
		if err := setup(in); err != nil {
			return nil, nil, err
		}
		peak, err := peakResident(pass)
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, peak)
	}
	return setups, peaks, nil
}

// peakResident runs fn, starting from a collected heap with free memory
// returned to the OS, and returns the peak of residentMB sampled every
// few milliseconds while it ran.
func peakResident(fn func() error) (float64, error) {
	debug.FreeOSMemory()
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := residentMB()
		for {
			select {
			case <-stop:
				done <- max(peak, residentMB())
				return
			case <-tick.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// residentMB is the memory the Go runtime holds from the OS: everything
// it mapped minus what it released back.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// cpuTime is the CPU time the process has used so far on all its threads,
// user plus system. Time spent waiting is not in it, nor CPU that other
// processes take: with a CPU-bound process beside the serve batch, its
// throughput fell by a third while CPU per query stayed within the
// run-to-run range.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reads as a zero metric, which the self-test rejects
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
