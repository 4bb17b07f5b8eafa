package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/dc"
	"repro/internal/proto"
)

// Fixed parameters of the station workload (see provenance.json).
const (
	stationMachines = 200 // machines in the preloaded history
	// stationPreload reports were journaled before the restart: below
	// pdme.DefaultCheckpointEvery, so the restart replays all of them from
	// the write-ahead log, as after a crash.
	stationPreload = 800
	// stationRate is the open-loop report rate — far below ingest's
	// saturation, so the station keeps up and reads share the CPU.
	stationRate = 100
	stationTick = 30 * time.Second // virtual time between reports
	// stationConditions per machine: reports about a machine stay within a
	// few conditions, so evidence accumulates per pair.
	stationConditions = 3
	// stationSetups restarts are timed for setup_s.
	stationSetups = 9
	// readThink is the reader's pause between a response and its next
	// request, as cmd/servebench's readers pause (its -think): without one
	// the reader is a hot loop that measures scheduler pressure, not
	// serving. 5 ms puts it at about one read per report.
	readThink = 5 * time.Millisecond
)

// readMix weights the reader's requests (of 10). It is cmd/servebench's
// mix — 7 ranked lists (the dashboard hot path), 2 pair beliefs, 1 trend —
// with the ranked share split as evenly as seven allows between the
// station's /ranked and the aggregator's global /ranked, the station's
// first because every report changes it.
var readMix = []struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}{
	{"ranked", 4},
	{"global_ranked", 3},
	{"belief", 2},
	{"trend", 1},
}

// readSlices are the window's slices the reader runs in; it also runs
// through warmup. The other slices carry the report feed alone, so the
// CPU a report costs and the CPU a read costs can be told apart, and the
// station's latencies are those of reads beside writes.
func readSlices(i int) bool { return i%2 == 0 }

func writeSlices(i int) bool { return i%2 == 1 }

// stationInputs synthesizes the DC's report stream: the first
// stationPreload are the journaled history, the rest the live feed.
func stationInputs(seed int64, live int) []proto.Report {
	rng := rand.New(rand.NewSource(seed*1000 + 77))
	conds := make([][]proto.Report, stationMachines)
	for m := range conds {
		machine := fmt.Sprintf("chiller/%d", 3000+m)
		for c := 0; c < stationConditions; c++ {
			conds[m] = append(conds[m], syntheticReport(rng, "dc-1", machine))
		}
	}
	base := dc.DefaultConfig("", "").Start
	out := make([]proto.Report, stationPreload+live)
	for k := range out {
		tmpl := conds[k%stationMachines][rng.Intn(stationConditions)]
		tmpl.Severity = 0.15 + 0.8*rng.Float64()
		tmpl.Belief = 0.3 + 0.6*rng.Float64()
		tmpl.Timestamp = base.Add(time.Duration(k) * stationTick)
		out[k] = tmpl
	}
	return out
}

type read struct {
	start time.Time
	lat   time.Duration
	// cpu is the reader thread's own CPU time for the read: request,
	// response and JSON validation.
	cpu time.Duration
	ok  bool
}

func runStation(b *bench) error {
	period := time.Second / stationRate
	live := int((b.warmup+b.seconds)/period) + 1
	inputs := stationInputs(b.seed, live)
	history := inputs[:stationPreload]
	feed := inputs[stationPreload:]
	b.info["inputs_sha256"] = reportsDigest(inputs)
	b.info["params"] = map[string]any{"dcs": 1, "machines": stationMachines, "preloaded_reports": stationPreload,
		"rate_per_s": stationRate, "read_mix": readMix, "readers": 1, "reader": "closed loop with a 5 ms pause, even slices of the window"}
	if err := b.preloadSetups(stationSetups, history); err != nil {
		return err
	}
	r, err := setupRepeated(b, stationSetups, func(dir string, led *ledger, tr *tracer) (*rig, error) {
		r := &rig{b: b, led: led, tr: tr}
		return r, buildStation(r, dir)
	}, awaitResync)
	if err != nil {
		return err
	}
	defer r.close()
	rec := r.st.recovery
	b.check("restart replays the preloaded journal", rec.ReportsReplayed == stationPreload && rec.SkippedRecords == 0,
		"replayed %d of %d, skipped %d", rec.ReportsReplayed, stationPreload, rec.SkippedRecords)
	r.setPreload(history)
	r.loadSlices, r.quietSlices = readSlices, writeSlices

	start := time.Now()
	r.startLoad(start)
	var wg sync.WaitGroup
	wg.Add(2)
	// Open-loop feeder: report k is due at start + k/rate, whatever the
	// station is doing; its freshness is timed from the due time.
	var late []float64
	go func() {
		defer wg.Done()
		em := r.ems[0]
		for k := range feed {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(r.to) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, ms(time.Since(due)))
			em.origin = due
			if err := em.Deliver(&feed[k]); err != nil {
				return
			}
		}
	}()
	// The closed-loop reader, over one keep-alive connection per server.
	var reads []read
	pairs := make([][2]string, 0, len(history))
	for _, h := range history {
		pairs = append(pairs, [2]string{h.SensedObjectID, h.MachineConditionID})
	}
	go func() {
		defer wg.Done()
		reads = readLoop(r, pairs, rand.New(rand.NewSource(b.seed*7+3)))
	}()
	heapMB := r.window()
	wg.Wait()
	r.genLate = late
	if err := r.drain(); err != nil {
		return err
	}

	// At quiescence the served ranking is the engine's, and the
	// aggregator holds every station pair at the station's event time.
	st := r.st
	list := st.engine.PrioritizedList()
	b.check("Views.Ranked equals PrioritizedList at quiescence", reflect.DeepEqual(st.views.Ranked().Items, list), "served ranking differs")
	missing := 0
	var firstMissing string
	for _, it := range list {
		at, ok := st.engine.ConclusionUpdatedAt(it.Component, it.Condition)
		g, gok := r.agg.agg.GlobalBelief(it.Component, it.Condition)
		if !ok || !gok || !g.UpdatedAt.Equal(at) {
			if missing == 0 {
				firstMissing = fmt.Sprintf("%s|%s (station has=%v at %v, aggregator has=%v at %v)", it.Component, it.Condition, ok, at, gok, g.UpdatedAt)
			}
			missing++
		}
	}
	b.check("every station pair at the aggregator with the station's ConclusionUpdatedAt", missing == 0,
		"%d of %d pairs missing or stale, first %s", missing, len(list), firstMissing)
	if err := r.verifyRanking(); err != nil {
		return err
	}

	var lat []sample
	var readStarts []time.Time
	readerCPU := make([]time.Duration, slices)
	failed := 0
	for _, rd := range reads {
		if !rd.ok {
			failed++
			continue
		}
		readStarts = append(readStarts, rd.start)
		lat = append(lat, sample{rd.start, us(rd.lat)})
		if i := sliceOf(rd.start, r.from, r.to); i >= 0 {
			r.clientCPU[i] += rd.cpu
			readerCPU[i] += rd.cpu
		}
	}
	r.finishCommon(heapMB)
	b.attempted += int64(len(reads))
	b.failed += int64(failed)
	b.set("serving.read_failures", float64(failed))
	b.check("every read answers 200 with valid JSON", failed == 0, "%d of %d reads failed", failed, len(reads))
	b.setLatency("read_p50_us", "read_p99_us", lat, r.from, r.to, readSlices)
	b.set("reads_per_s", slicedRate(readStarts, r.from, r.to, readSlices))
	// A read's CPU: per read slice, the process CPU less the benchmark's
	// own and less the slice's reports at the write-only slices' cost per
	// report, over the slice's reads; in µs and in units of the slice's
	// speed probe time.
	perReport, perReportRel := b.values["cpu_us_per_report"], b.values["report_cpu_rel"]
	fusedIn, readsIn := r.perSlice(r.notices), r.perSlice(readStarts)
	var perRead, perReadRel []float64
	var client, total time.Duration
	for i := 0; i < slices; i++ {
		if !readSlices(i) || readsIn[i] == 0 {
			continue
		}
		cpu, n := us(r.sliceCPU(i)), float64(readsIn[i])
		perRead = append(perRead, (cpu-perReport*float64(fusedIn[i]))/n)
		perReadRel = append(perReadRel, (cpu/r.speedUS[i]-perReportRel*float64(fusedIn[i]))/n)
		client += readerCPU[i]
		total += r.cpuMarks[i+1] - r.cpuMarks[i]
	}
	b.set("cpu_us_per_op", median(perRead))
	b.set("op_cpu_rel", median(perReadRel))
	b.set("gen.reader_cpu_share", float64(client)/float64(total))
	b.info["reader_cpu_share"] = b.values["gen.reader_cpu_share"]
	var global []sample
	for _, j := range r.led.inWindow(r.from, r.to) {
		global = append(global, sample{j.origin, ms(j.aggOut.Sub(j.origin))})
	}
	b.setLatency("global_fresh_p50_ms", "global_fresh_p99_ms", global, r.from, r.to, r.loadSlices)
	if b.attempted > 0 {
		b.set("failed_share", float64(b.failed)/float64(b.attempted))
	}
	if r.tr == nil {
		return nil
	}
	pool, clf, cfg, err := smallPool(b.seed)
	if err != nil {
		return err
	}
	if err := r.tr.dcProbes(b, pool, clf, cfg); err != nil {
		return err
	}
	return r.tr.probes(b, r)
}

// buildStation restarts the shard-role station over its journal: the
// aggregator it forwards to, recovery, forwarder resync, and the DC uplink.
func buildStation(r *rig, dir string) error {
	var err error
	if r.agg, err = openAggregator(); err != nil {
		return err
	}
	r.st, err = openStation(stationConfig{
		journalDir: filepath.Join(dir, "journal"),
		forwardTo:  r.agg,
		led:        r.led,
		tr:         r.tr,
	})
	if err != nil {
		return err
	}
	return r.openUplinks([]string{"dc-1"}, filepath.Join(dir, "spool"))
}

// awaitResync waits, untimed, until the aggregator holds the resync
// stream, so it does not mix with load. pdmed takes reports while its
// forwarder drains; the wait is the benchmark's, not part of set-up.
func awaitResync(_ int, r *rig) error {
	return waitFor(60*time.Second, "resync at the aggregator", func() bool {
		return r.agg.agg.Accepted()+r.agg.agg.StaleDropped() >= int64(r.st.resynced)
	})
}

// readLoop issues the read mix closed loop — the next read starts when the
// previous one returns — in the read slices until the window closes. It
// runs on its own OS thread, so the thread's CPU clock times its own work.
func readLoop(r *rig, pairs [][2]string, rng *rand.Rand) []read {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	total := 0
	for _, m := range readMix {
		total += m.Weight
	}
	width := r.to.Sub(r.from) / slices
	var out []read
	for {
		now := time.Now()
		if !now.Before(r.to) {
			return out
		}
		if i := sliceOf(now, r.from, r.to); i >= 0 && !readSlices(i) {
			time.Sleep(time.Until(r.from.Add(time.Duration(i+1) * width)))
			continue
		}
		pick := rng.Intn(total)
		var op string
		for _, m := range readMix {
			if pick < m.Weight {
				op = m.Name
				break
			}
			pick -= m.Weight
		}
		p := pairs[rng.Intn(len(pairs))]
		q := "component=" + url.QueryEscape(p[0]) + "&condition=" + url.QueryEscape(p[1])
		var u string
		switch op {
		case "ranked":
			u = "http://" + r.st.http.addr + "/ranked"
		case "belief":
			u = "http://" + r.st.http.addr + "/belief?" + q
		case "trend":
			u = "http://" + r.st.http.addr + "/trend?" + q + "&threshold=0.8"
		default:
			u = "http://" + r.agg.http.addr + "/ranked"
		}
		c0 := threadCPUTime()
		t0 := time.Now()
		resp, err := client.Get(u)
		rd := read{start: t0}
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			rd.lat = time.Since(t0)
			rd.ok = rerr == nil && resp.StatusCode == http.StatusOK && json.Valid(body)
		}
		rd.cpu = threadCPUTime() - c0
		out = append(out, rd)
		time.Sleep(readThink)
	}
}
