package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/uplink"

	mpros "repro"
)

// rig is one assembled stack under load: the station, its DC uplinks and
// their emitters, and what the measured window needs to report.
type rig struct {
	b   *bench
	st  *station
	agg *aggregator
	led *ledger
	tr  *tracer
	ups []*uplink.Uplink
	ems []*emitter

	// preload are reports the station recovered from its journal before
	// load, fed to the reference PDME ahead of the live ones.
	preload []*proto.Report

	fusedBase int
	from, to  time.Time // the measured window
	servBase  serving.Stats
	rtFrom    runtimeSample
	rtTo      runtimeSample
	// cpuMarks is the process CPU time at each slice boundary of the
	// window.
	cpuMarks []time.Duration
	// clientCPU is the CPU time per slice that the benchmark's own threads
	// used (the speed probe, station's reader), kept out of the CPU figures.
	clientCPU []time.Duration
	// speedUS is the speed probe's median CPU time per run in each slice,
	// in µs: the unit of the bounded *_rel figures.
	speedUS []float64
	// loadSlices are the slices whose latencies and freshness are reported,
	// and quietSlices those whose CPU per report is: all of them except on
	// station, which reads in alternate slices.
	loadSlices, quietSlices sliceSet

	fused   int         // reports fused in the window
	notices []time.Time // every watch notice
	genLate []float64   // generator lateness samples, ms
}

// setupDir is the scratch directory of a run's rep-th set-up.
func (b *bench) setupDir(rep int) string {
	return filepath.Join(b.dir, fmt.Sprintf("setup-%d", rep))
}

// setupRepeated builds a stack n times, each in its own directory with its
// own ledger, keeps the last and closes the others, and sets setup_s to the
// median build time. The last build is traced on a traced run. between,
// when set, runs untimed after each build.
func setupRepeated[T interface{ close() }](b *bench, n int, build func(dir string, led *ledger, tr *tracer) (T, error), between func(rep int, t T) error) (T, error) {
	var setups []float64
	var kept T
	for rep := 0; rep < n; rep++ {
		led := newLedger()
		var tr *tracer
		if b.trace && rep == n-1 {
			tr = &tracer{led: led}
		}
		t0 := time.Now()
		t, err := build(b.setupDir(rep), led, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil && between != nil {
			err = between(rep, t)
		}
		if err != nil {
			t.close()
			return kept, fmt.Errorf("set-up: %w", err)
		}
		if rep < n-1 {
			t.close()
			continue
		}
		kept = t
	}
	b.set("setup_s", median(setups))
	b.info["setup_s_runs"] = setups
	return kept, nil
}

// preloadSetups journals history through a PDME wired like pdmed's, tagging
// each report with its DC and a per-DC sequence, and leaves it unclosed, as
// after a crash. Every set-up then recovers its own copy; the copies are
// made before any timing.
func (b *bench) preloadSetups(n int, history []proto.Report) error {
	pre := filepath.Join(b.dir, "preload")
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		return err
	}
	eng, err := pdme.New(model, mpros.ChillerGroups())
	if err != nil {
		return err
	}
	if err := eng.ConfigureHealth(pdmedHealth()); err != nil {
		return err
	}
	if _, err := eng.OpenJournal(pdme.JournalOptions{Dir: pre}); err != nil {
		return err
	}
	seq := make(map[string]uint64)
	for k := range history {
		rep := &history[k]
		seq[rep.DCID]++
		if err := eng.DeliverTagged(rep, rep.DCID, 1, seq[rep.DCID]); err != nil {
			return fmt.Errorf("preload journal: %w", err)
		}
	}
	for rep := 0; rep < n; rep++ {
		if err := copyDir(pre, filepath.Join(b.setupDir(rep), "journal")); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setPreload records the recovered history, which the reference PDME is
// fed ahead of the live reports.
func (r *rig) setPreload(history []proto.Report) {
	r.preload = make([]*proto.Report, len(history))
	for i := range history {
		r.preload[i] = &history[i]
	}
}

// openUplinks opens one dcsim-style uplink and emitter per DC id.
func (r *rig) openUplinks(dcids []string, spoolRoot string) error {
	for i, id := range dcids {
		up, err := newUplink(r.st.reportAddr, id, spoolRoot, r.b.seed*100+int64(i))
		if err != nil {
			return err
		}
		r.ups = append(r.ups, up)
		r.ems = append(r.ems, &emitter{led: r.led, up: up, dcid: id, traced: r.tr != nil})
	}
	return nil
}

func (r *rig) close() {
	for _, up := range r.ups {
		_ = up.Close()
	}
	if r.st != nil {
		r.st.close()
	}
	if r.agg != nil {
		r.agg.close()
	}
}

// startLoad marks the beginning of load: the window opens after warmup.
func (r *rig) startLoad(now time.Time) {
	r.fusedBase = r.st.engine.ReceivedReports()
	r.servBase = r.st.views.Stats()
	r.setWindow(now)
	if r.agg != nil {
		r.agg.led.Store(r.led)
	}
}

// setWindow places the measured window warmup after now.
func (r *rig) setWindow(now time.Time) {
	r.from = now.Add(r.b.warmup)
	r.to = r.from.Add(r.b.seconds)
}

// window sleeps through warmup and the measured window, sampling the
// runtime counters at its edges and the process CPU time at every slice
// boundary, runs the speed probe through it, and returns the peak heap in
// MiB.
func (r *rig) window() float64 {
	time.Sleep(time.Until(r.from))
	r.rtFrom = readRuntime()
	heap := startHeapPeak()
	speed := startSpeedProbe()
	if r.tr != nil {
		r.tr.watchCheckpoints(r.st.engine)
	}
	width := r.to.Sub(r.from) / slices
	r.cpuMarks = []time.Duration{cpuTime()}
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(r.from.Add(time.Duration(i) * width)))
		r.cpuMarks = append(r.cpuMarks, cpuTime())
	}
	r.setSpeed(speed.stop())
	r.rtTo = readRuntime()
	if r.tr != nil {
		r.tr.stopCheckpoints()
	}
	return heap.stopMB()
}

// setSpeed books the speed probe's CPU time as client CPU and sets each
// slice's median probe time; a slice without a probe run (a very short
// window) takes the median over the window.
func (r *rig) setSpeed(runs []speedRun) {
	r.clientCPU = make([]time.Duration, slices)
	per := make([][]float64, slices)
	var all []float64
	for _, p := range runs {
		if i := sliceOf(p.at, r.from, r.to); i >= 0 {
			r.clientCPU[i] += p.cpu
			per[i] = append(per[i], us(p.cpu))
			all = append(all, us(p.cpu))
		}
	}
	r.speedUS = make([]float64, slices)
	for i, p := range per {
		if len(p) == 0 {
			p = all
		}
		r.speedUS[i] = median(p)
	}
	r.b.info["speed_probe_us"] = median(all)
}

func (r *rig) sent() int {
	n := 0
	for _, e := range r.ems {
		n += int(e.seq)
	}
	return n
}

// drain waits for every spool to empty and every report's notice, then
// runs the exactly-once checks and resolves the ledger.
func (r *rig) drain() error {
	b := r.b
	for i, up := range r.ups {
		if err := up.Flush(60 * time.Second); err != nil {
			b.check("spools drain to zero", false, "uplink %d: %v", i, err)
			return err
		}
	}
	sent := r.sent()
	if err := waitFor(60*time.Second, "one notice per report", func() bool { return r.led.noticeCount() >= sent }); err != nil {
		b.check("one notice per accepted report", false, "%d reports sent, %d notices", sent, r.led.noticeCount())
		return err
	}
	if r.agg != nil {
		if err := r.st.fwd.Flush(60 * time.Second); err != nil {
			b.check("forwarder spool drains", false, "%v", err)
			return err
		}
	}
	fused := r.st.engine.ReceivedReports() - r.fusedBase
	b.check("spools drain to zero", true, "")
	b.check("fused-count delta equals sends", fused == sent, "%d sent, %d fused", sent, fused)
	b.check("one notice per accepted report", r.led.noticeCount() == fused, "%d fused, %d notices", fused, r.led.noticeCount())
	errs := 0
	for _, e := range r.ems {
		errs += e.errors
	}
	b.check("no report delivery errors", errs == 0, "%d delivery errors", errs)
	var capDrops, retried, dedupAcks int64
	for _, up := range r.ups {
		c := up.Counters()
		capDrops += c.CapacityDrops
		retried += c.Retried
		dedupAcks += c.DedupAcks
	}
	sv := r.st.views.Stats()
	drops := int64(sv.NoticeDrops - r.servBase.NoticeDrops)
	b.check("no notice dropped", drops == 0, "%d notices dropped", drops)
	b.check("no spool capacity drop", capDrops == 0, "%d capacity drops", capDrops)

	b.set("pdme.unfused", float64(sent-fused))
	b.set("dc.report_errors", float64(errs))
	b.set("uplink.capacity_drops", float64(capDrops))
	b.set("uplink.retried", float64(retried))
	b.set("uplink.dedup_acks", float64(dedupAcks))
	b.set("serving.notice_drops", float64(drops))
	b.set("serving.read_failures", 0) // station's reader overrides both
	b.set("gen.reader_cpu_share", 0)
	b.set("proto.dedup_hits", float64(r.st.engine.DedupHits()))
	b.attempted += int64(sent + errs)
	b.failed += int64(sent-fused) + int64(errs) + capDrops + drops

	if err := r.led.resolve(r.tr != nil, r.agg != nil); err != nil {
		b.check("seam events match reports", false, "%v", err)
		return err
	}
	return nil
}

// verifyRanking requires the live ranking to be bit-identical to a fresh
// unjournaled PDME fed the same per-DC report sequences.
func (r *rig) verifyRanking() error {
	seqs := [][]*proto.Report{r.preload}
	for _, e := range r.ems {
		seqs = append(seqs, e.sent)
	}
	ref, err := referenceRanking(seqs)
	if err != nil {
		return err
	}
	live := r.st.engine.PrioritizedList()
	r.b.check("final ranking bit-identical to an unjournaled reference", reflect.DeepEqual(live, ref),
		"%s", firstDiff(live, ref))
	return nil
}

func referenceRanking(seqs [][]*proto.Report) ([]pdme.MaintenanceItem, error) {
	db := relstore.NewMemory()
	defer db.Close()
	model, err := oosm.NewModel(db)
	if err != nil {
		return nil, err
	}
	eng, err := pdme.New(model, mpros.ChillerGroups())
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.ConfigureHealth(pdmedHealth()); err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		for _, rep := range seq {
			if err := eng.Deliver(rep); err != nil {
				return nil, fmt.Errorf("reference deliver: %w", err)
			}
		}
	}
	return eng.PrioritizedList(), nil
}

func firstDiff(a, b []pdme.MaintenanceItem) string {
	if len(a) != len(b) {
		return fmt.Sprintf("live has %d items, reference %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("item %d: live %+v, reference %+v", i, a[i], b[i])
		}
	}
	return ""
}

// freshness sets fresh_p50_ms/fresh_p99_ms, durable_p50_ms, the durable
// path's service time and reports_per_s from the resolved ledger, and
// returns the journeys of the window.
func (r *rig) freshness() []*journey {
	js := r.led.inWindow(r.from, r.to)
	fresh := make([]sample, 0, len(js))
	durable := make([]sample, 0, len(js))
	var notices []time.Time
	for _, j := range js {
		fresh = append(fresh, sample{j.origin, ms(j.notice.Sub(j.origin))})
		durable = append(durable, sample{j.origin, ms(j.notice.Sub(j.handoff))})
	}
	r.b.setLatency("fresh_p50_ms", "fresh_p99_ms", fresh, r.from, r.to, r.loadSlices)
	r.b.set("durable_p50_ms", slicedQuantile(durable, r.from, r.to, nil, 0.5, nil))
	// A report's service time on the durable path runs from its hand-off,
	// or from the notice of the report before it if that came later, to
	// its own notice: durable_p50_ms without the queueing behind earlier
	// reports, which on tick arrive in bursts of a step's reports and
	// make the wait depend on where in its burst a report falls. Its lower
	// quartile is reported: a wait added on the path moves every
	// quantile, while time the host gives other tenants comes in chunks
	// of milliseconds that delay a minority of reports.
	byHandoff := append([]*journey(nil), js...)
	sort.Slice(byHandoff, func(a, b int) bool { return byHandoff[a].handoff.Before(byHandoff[b].handoff) })
	service := make([]sample, 0, len(js))
	var free time.Time
	for _, j := range byHandoff {
		start := j.handoff
		if free.After(start) {
			start = free
		}
		service = append(service, sample{j.origin, ms(j.notice.Sub(start))})
		if j.notice.After(free) {
			free = j.notice
		}
	}
	r.b.set("durable_service_p25_ms", slicedQuantile(service, r.from, r.to, nil, 0.25, nil))
	r.b.set("durable_service_p25_rel", 1000*slicedQuantile(service, r.from, r.to, nil, 0.25, r.speedUS))
	r.b.info["fresh_samples"] = len(fresh)

	// Reports durably fused per second of the window: every notice fires
	// after the report's journal append and fusion committed.
	perSecond := make([]int, int(r.b.seconds/time.Second))
	r.led.mu.Lock()
	for _, ev := range r.led.comp {
		for _, t := range ev.notice {
			notices = append(notices, t)
			if !t.Before(r.from) && t.Before(r.to) {
				if s := int(t.Sub(r.from) / time.Second); s < len(perSecond) {
					perSecond[s]++
				}
			}
		}
	}
	r.led.mu.Unlock()
	r.notices = notices
	r.b.info["fused_per_second"] = perSecond
	r.b.set("reports_per_s", slicedRate(notices, r.from, r.to, nil))
	r.fused = 0
	for _, n := range perSecond {
		r.fused += n
	}
	perReport, rel := r.cpuPer(notices, r.quietSlices)
	r.b.set("cpu_us_per_report", perReport)
	r.b.set("report_cpu_rel", rel)
	return js
}

// perSlice counts the events in each slice of the window.
func (r *rig) perSlice(events []time.Time) []int {
	counts := make([]int, slices)
	for _, t := range events {
		if i := sliceOf(t, r.from, r.to); i >= 0 {
			counts[i]++
		}
	}
	return counts
}

// sliceCPU is the process CPU time of slice i less its client CPU.
func (r *rig) sliceCPU(i int) time.Duration {
	d := r.cpuMarks[i+1] - r.cpuMarks[i]
	if i < len(r.clientCPU) {
		d -= r.clientCPU[i]
	}
	return d
}

// cpuPer is the process CPU time per unit of work: per selected slice of
// the window, the slice's CPU time over the units that happened in it, and
// the median over the slices. It returns the figure in µs and, as rel, in
// units of the slice's speed probe time.
func (r *rig) cpuPer(events []time.Time, sel sliceSet) (perUnit, rel float64) {
	var per, perRel []float64
	for i, n := range r.perSlice(events) {
		if n > 0 && sel.has(i) && i+1 < len(r.cpuMarks) {
			per = append(per, us(r.sliceCPU(i))/float64(n))
			perRel = append(perRel, us(r.sliceCPU(i))/float64(n)/r.speedUS[i])
		}
	}
	if len(per) == 0 {
		return math.NaN(), math.NaN()
	}
	return median(per), median(perRel)
}

// finishCommon sets the end-to-end and per-layer metrics every workload
// shares, after drain and the ranking check.
func (r *rig) finishCommon(heapMB float64) {
	b := r.b
	js := r.freshness()
	encodeProbe(b, r.ems)
	b.set("heap_peak_mb", heapMB)
	if r.fused > 0 {
		b.set("runtime.allocs_per_report", float64(r.rtTo.allocObjects-r.rtFrom.allocObjects)/float64(r.fused))
		b.set("runtime.alloc_bytes_per_report", float64(r.rtTo.allocBytes-r.rtFrom.allocBytes)/float64(r.fused))
	}
	sv := r.st.views.Stats()
	looked := float64((sv.Hits + sv.Misses + sv.Bypasses + sv.Coalesced) - (r.servBase.Hits + r.servBase.Misses + r.servBase.Bypasses + r.servBase.Coalesced))
	if looked > 0 {
		b.set("serving.hit_ratio", float64(sv.Hits-r.servBase.Hits)/looked)
	} else {
		b.set("serving.hit_ratio", 0)
	}
	b.set("serving.invalidations", float64(sv.Invalidations-r.servBase.Invalidations))
	b.set("serving.coalesced", float64(sv.Coalesced-r.servBase.Coalesced))
	depth := 0
	for _, e := range r.ems {
		if e.depthMax > depth {
			depth = e.depthMax
		}
	}
	b.set("uplink.spool_depth_max", float64(depth))
	b.set("gen.late_p99_ms", quantile(r.genLate, 0.99))
	// A rate the station cannot sustain shows as a late generator and a
	// growing spool; every run prints both.
	b.info["gen_late_p99_ms"] = b.values["gen.late_p99_ms"]
	b.info["uplink_spool_depth_max"] = depth
	b.info["recovery"] = r.st.recovery
	_, last, ckpt, _ := r.st.engine.JournalInfo()
	b.info["journal_last_seq"] = last
	b.info["journal_checkpoint_seq"] = ckpt
	if r.tr != nil {
		r.tr.layers(b, r, js)
	}
	if b.attempted > 0 {
		b.set("failed_share", float64(b.failed)/float64(b.attempted))
	}
}
