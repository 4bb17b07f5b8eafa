// Command perfbench is the MPROS pipeline benchmark. It assembles the
// production stack in one process — the PDME exactly as cmd/pdmed builds it
// with a journal, serving views and (in the shard role) a forwarder to an
// aggregator, fed by DC uplinks exactly as cmd/dcsim opens them — drives one
// seeded workload for a fixed time, checks the outputs, and prints the
// metrics. See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tick --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 the run is traced and the metrics are
// the per-layer metrics. The exit code is non-zero when any correctness
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with --trace 0, the ones
// BENCHMARK.json bounds. Every workload measures every one of them:
//   - setup_s, the median of several set-ups in the run;
//   - report_cpu_rel, the process CPU time per fused report;
//   - op_cpu_rel, the process CPU time per operation of the workload's
//     client: a DC step on tick (a step's reports are fixed, so there it
//     moves with report_cpu_rel), a report on ingest, and on station an
//     HTTP read, net of the write path;
//   - durable_service_p25_rel, the lower quartile of the durable path's
//     service time: a report's hand-off to its DC uplink, or the notice of
//     the report before it if that came later, to its Views.Watch notice
//     (spool, wire, journal fsync, fusion, invalidation, notify). It moves
//     with waits — an fsync, a lock hold, a timer — that are not CPU.
//
// The *_rel figures are in units of the speed probe's CPU time (speed.go),
// slice by slice, so a host that runs everything slower for a while moves
// them little. Their absolute values, cpu_us_per_report, cpu_us_per_op and
// durable_service_p25_ms, are printed among the named metrics. The CPU of
// the benchmark's own threads (the speed probe, station's reader) is left
// out of the CPU figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"report_cpu_rel", "ratio"},
	{"op_cpu_rel", "ratio"},
	{"durable_service_p25_rel", "ratio"},
}

// namedEndToEnd are the user-facing metrics each workload prints by name
// when they apply to it (the information line before the result). Those
// not in endToEnd are reported, not bounded: the tails and rates spread
// more from run to run on a shared two-core host, the failure share is
// zero on a correct run, and the heap grows with the reports a fixed-time
// run fuses. Medians and rates are taken per slice of the window and the
// median slice reported.
var namedEndToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_report", "us"},
	{"cpu_us_per_op", "us"},
	{"samples_per_s", "1/s"},
	{"tick_p50_ms", "ms"},
	{"tick_p99_ms", "ms"},
	{"reports_per_s", "1/s"},
	{"durable_p50_ms", "ms"},
	{"durable_service_p25_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p99_ms", "ms"},
	{"global_fresh_p50_ms", "ms"},
	{"global_fresh_p99_ms", "ms"},
	{"reads_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"failed_share", "ratio"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Layers without live
// traffic on a workload are measured by calling the layer's public
// function on seeded inputs after the measured phase.
var perLayer = []metricDef{
	{"dc.step_ms", "ms"},
	{"dc.proc_scan_us", "us"},
	{"dc.sbfr_scan_us", "us"},
	{"dc.emit_us", "us"},
	{"dc.reports_per_step", "count"},
	{"dc.report_errors", "count"},
	{"dc.unattributed_share", "ratio"},
	{"dsp.analyze_us", "us"},
	{"vibration.extract_us", "us"},
	{"vibration.diagnose_us", "us"},
	{"dc.guard_us", "us"},
	{"wavelet.decompose_us", "us"},
	{"wnn.classify_us", "us"},
	{"fuzzy.diagnose_us", "us"},
	{"sbfr.cycle_us", "us"},
	{"relstore.insert_us", "us"},
	{"historian.append_us", "us"},
	{"proto.encode_us", "us"},
	{"proto.frame_bytes", "B"},
	{"proto.rtt_us", "us"},
	{"proto.dedup_hits", "count"},
	{"uplink.deliver_us", "us"},
	{"uplink.queue_p50_ms", "ms"},
	{"uplink.queue_p99_ms", "ms"},
	{"uplink.spool_depth_max", "count"},
	{"uplink.retried", "count"},
	{"uplink.dedup_acks", "count"},
	{"uplink.capacity_drops", "count"},
	{"journal.append_us", "us"},
	{"journal.checkpoints", "count"},
	{"pdme.accept_p50_us", "us"},
	{"pdme.accept_p99_us", "us"},
	{"pdme.journal_us", "us"},
	{"pdme.fuse_us", "us"},
	{"pdme.accept_inflight_mean", "count"},
	{"pdme.unfused", "count"},
	{"runtime.allocs_per_report", "count"},
	{"runtime.alloc_bytes_per_report", "B"},
	{"serving.hit_ratio", "ratio"},
	{"serving.invalidations", "count"},
	{"serving.coalesced", "count"},
	{"serving.ranked_us", "us"},
	{"serving.belief_us", "us"},
	{"serving.http_us", "us"},
	{"serving.notify_us", "us"},
	{"serving.notice_drops", "count"},
	{"serving.read_failures", "count"},
	{"shard.forward_ms", "ms"},
	{"shard.aggregate_us", "us"},
	{"shard.global_ranked_us", "us"},
	{"shard.stale_dropped", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.reader_cpu_share", "ratio"},
	{"trace.fresh_accounted_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// bench is one run's settings and everything it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	warmup   time.Duration
	trace    bool
	// dir is the run's scratch directory inside the checkout.
	dir string

	values    map[string]float64 // metric name → value (end-to-end and per-layer)
	checks    []check
	attempted int64
	failed    int64
	info      map[string]any
}

type workload struct {
	run func(*bench) error
	// warmup runs load before the measured window opens, so caches fill
	// and lazy set-up finishes first. ingest's throughput climbs for a few
	// seconds after it recovers the primed journal.
	warmup time.Duration
}

var workloads = map[string]workload{
	"tick":    {runTick, 2 * time.Second},
	"ingest":  {runIngest, 5 * time.Second},
	"station": {runStation, 2 * time.Second},
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: tick, ingest or station")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload tick|ingest|station, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		warmup:   w.warmup,
		trace:    *trace == 1,
		dir:      filepath.Join(cwd, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())),
		values:   make(map[string]float64),
		info:     make(map[string]any),
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	runErr := w.run(b)
	if runErr == nil {
		runErr = b.calibrate()
	}
	b.info["host"] = fingerprint(cwd, b.dir)
	return b.report(runErr)
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) check(name string, ok bool, detail string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(detail, args...)
	}
	b.checks = append(b.checks, c)
}

// report prints the information lines and the result line, and returns
// the exit code.
func (b *bench) report(runErr error) int {
	correct := runErr == nil
	for _, c := range b.checks {
		if !c.OK {
			correct = false
			fmt.Printf("perfbench: CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	if runErr != nil {
		fmt.Printf("perfbench: run failed: %v\n", runErr)
	}
	printJSONLine("host", b.info["host"])
	delete(b.info, "host")
	printJSONLine("workload", b.info)
	printJSONLine("checks", b.checks)
	named := make(map[string]metric)
	for _, m := range namedEndToEnd {
		if v, ok := b.values[m.name]; ok && !math.IsNaN(v) {
			named[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	label := "end_to_end"
	if b.trace {
		label = "end_to_end_traced"
	}
	printJSONLine(label, named)

	want := endToEnd
	if b.trace {
		want = perLayer
	}
	metrics := make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		v, ok := b.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 && runErr == nil {
		sort.Strings(missing)
		fmt.Printf("perfbench: metrics not measured: %s\n", strings.Join(missing, ", "))
		correct = false
	}
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, b.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Println("perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printJSONLine(label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("perfbench: %s %s\n", label, data)
}
