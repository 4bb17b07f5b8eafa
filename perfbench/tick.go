package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/historian"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/wnn"
)

// Fixed parameters of the tick workload (see provenance.json).
const (
	tickPool = 16 // recorded steps per DC; replay cycles steps 1..tickPool-1
	tickStep = 4 * time.Hour
	// wnnPerClass and wnnSeed are examples/four-sources' training settings.
	wnnPerClass = 10
	wnnSeed     = 5
)

// tickDCs are the two DCs: each its own seeded chiller with a distinct
// degrading fault — a bearing defect the vibration sources (DLI, WNN) call,
// and a refrigerant leak the process sources (fuzzy, SBFR) call.
var tickDCs = []struct {
	id, machine string
	profile     chiller.DegradationProfile
}{
	{"dc-1", "chiller/1", chiller.DegradationProfile{Fault: chiller.MotorBearingOuter, OnsetHours: -24, GrowthHours: 96, Shape: chiller.Exponential}},
	{"dc-2", "chiller/2", chiller.DegradationProfile{Fault: chiller.RefrigerantLowCharge, OnsetHours: -24, GrowthHours: 96, Shape: chiller.Linear}},
}

// tickDCConfig is cmd/dcsim's DC with all four knowledge sources on (SBFR
// here, WNN attached after New). Heartbeats stay off so the final ranking
// is a pure function of the per-DC report sequences, which the reference
// check requires.
func tickDCConfig(id, machine string, hist *historian.Store) dc.Config {
	cfg := dc.DefaultConfig(id, machine)
	cfg.EnableSBFR = true
	cfg.Historian = hist
	return cfg
}

// stepRec is one recorded DC step: every source call, in call order.
type stepRec struct {
	points []chiller.MeasurementPoint
	frames [][]float64
	states []chiller.ProcessState
	loads  []float64
}

// recorder is a dc.Source over a live plant that records what it serves.
type recorder struct {
	plant *chiller.Plant
	cur   *stepRec
}

func (r *recorder) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	f, err := r.plant.AcquireVibration(pt, n)
	if err == nil {
		r.cur.points = append(r.cur.points, pt)
		r.cur.frames = append(r.cur.frames, append([]float64(nil), f...))
	}
	return f, err
}

func (r *recorder) ProcessState() chiller.ProcessState {
	s := r.plant.ProcessState()
	r.cur.states = append(r.cur.states, s)
	return s
}

func (r *recorder) Load() float64 {
	l := r.plant.Load()
	r.cur.loads = append(r.cur.loads, l)
	return l
}

func (r *recorder) Config() chiller.Config { return r.plant.Config() }

// replay is a dc.Source serving a recorded pool step by step. Each frame is
// copied out, as an acquisition into a fresh buffer would be.
type replay struct {
	cfg        chiller.Config
	pool       []stepRec
	cur        *stepRec
	fi, si, li int
	// overruns counts calls beyond what the step recorded; any is a
	// benchmark defect the checks report.
	overruns int
	samples  int64
}

func (r *replay) begin(step int) {
	r.cur = &r.pool[step]
	r.fi, r.si, r.li = 0, 0, 0
}

func (r *replay) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	if r.fi >= len(r.cur.frames) || r.cur.points[r.fi] != pt || len(r.cur.frames[r.fi]) != n {
		r.overruns++
		return nil, fmt.Errorf("replay: step did not record frame %d for %v", r.fi, pt)
	}
	out := make([]float64, n)
	copy(out, r.cur.frames[r.fi])
	r.fi++
	r.samples += int64(n)
	return out, nil
}

func (r *replay) ProcessState() chiller.ProcessState {
	if r.si >= len(r.cur.states) {
		r.overruns++
		return r.cur.states[len(r.cur.states)-1]
	}
	s := r.cur.states[r.si]
	r.si++
	return s
}

func (r *replay) Load() float64 {
	if r.li >= len(r.cur.loads) {
		r.overruns++
		return r.cur.loads[len(r.cur.loads)-1]
	}
	l := r.cur.loads[r.li]
	r.li++
	return l
}

func (r *replay) Config() chiller.Config { return r.cfg }

// poolIndex maps the k-th replayed step onto the pool. Step 0 runs the
// scheduler's t=0 tasks as well, so only steps 1.. repeat.
func poolIndex(k, size int) int {
	if k < size {
		return k
	}
	return 1 + (k-1)%(size-1)
}

// collectSink keeps every report a DC emits.
type collectSink struct{ reports []*proto.Report }

func (c *collectSink) Deliver(r *proto.Report) error {
	c.reports = append(c.reports, r)
	return nil
}

// recordPoolSteps runs a live DC over a degrading plant for the given
// number of steps and returns what its source served and the reports it
// emitted.
func recordPoolSteps(seed int64, i int, clf *wnn.ChillerClassifier, steps int) ([]stepRec, []*proto.Report, error) {
	spec := tickDCs[i]
	cfg := chiller.DefaultConfig()
	cfg.Seed = seed*10 + int64(i) + 1
	plant, err := chiller.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	deg, err := chiller.NewDegrader(plant, []chiller.DegradationProfile{spec.profile})
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{plant: plant}
	sink := &collectSink{}
	d, err := dc.New(tickDCConfig(spec.id, spec.machine, nil), rec, relstore.NewMemory(), sink)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	if err := d.AttachWNN(clf); err != nil {
		return nil, nil, err
	}
	pool := make([]stepRec, steps)
	for k := range pool {
		if err := deg.Advance(tickStep.Hours()); err != nil {
			return nil, nil, err
		}
		rec.cur = &pool[k]
		if err := d.RunFor(tickStep); err != nil {
			return nil, nil, err
		}
	}
	return pool, sink.reports, nil
}

// poolDigest hashes a recorded pool.
func poolDigest(pools [][]stepRec) string {
	h := sha256.New()
	var buf [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, pool := range pools {
		for _, st := range pool {
			for fi, f := range st.frames {
				f64(float64(st.points[fi]))
				for _, v := range f {
					f64(v)
				}
			}
			for _, s := range st.states {
				fmt.Fprintf(h, "%v", s)
			}
			for _, l := range st.loads {
				f64(l)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// trainClassifiers trains one WNN per DC, in parallel: each DC process
// trains its own in a deployment.
func trainClassifiers(n int) ([]*wnn.ChillerClassifier, error) {
	clfs := make([]*wnn.ChillerClassifier, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range clfs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clfs[i], errs[i] = wnn.NewChillerClassifier(chiller.DefaultConfig(), dc.DefaultConfig("", "").FrameLen, wnnPerClass, wnnSeed)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return clfs, nil
}

// tickRig is the tick stack: the station plus one replaying DC per uplink.
type tickRig struct {
	*rig
	dcs   []*dc.DC
	srcs  []*replay
	hists []*historian.Store
	clfs  []*wnn.ChillerClassifier
}

func (t *tickRig) close() {
	for _, d := range t.dcs {
		_ = d.Close()
	}
	for _, h := range t.hists {
		_ = h.Close()
	}
	t.rig.close()
}

// buildTick assembles the tick stack: WNN training, station, uplinks, DCs.
func buildTick(b *bench, dir string, led *ledger, tr *tracer) (*tickRig, error) {
	t := &tickRig{rig: &rig{b: b, led: led, tr: tr}}
	var err error
	if t.clfs, err = trainClassifiers(len(tickDCs)); err != nil {
		return t, err
	}
	if t.st, err = openStation(stationConfig{journalDir: filepath.Join(dir, "journal"), led: led, tr: tr}); err != nil {
		return t, err
	}
	ids := make([]string, len(tickDCs))
	for i, spec := range tickDCs {
		ids[i] = spec.id
	}
	if err := t.openUplinks(ids, filepath.Join(dir, "spool")); err != nil {
		return t, err
	}
	for i, spec := range tickDCs {
		hist, err := historian.Open(historian.Options{})
		if err != nil {
			return t, err
		}
		t.hists = append(t.hists, hist)
		cfg := chiller.DefaultConfig()
		cfg.Seed = b.seed*10 + int64(i) + 1
		src := &replay{cfg: cfg}
		d, err := dc.New(tickDCConfig(spec.id, spec.machine, hist), src, relstore.NewMemory(), t.ems[i])
		if err != nil {
			return t, err
		}
		t.dcs = append(t.dcs, d)
		t.srcs = append(t.srcs, src)
		if err := d.AttachWNN(t.clfs[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

type stepSample struct {
	start, end time.Time
	samples    int64
	reports    uint64
}

// tickSetups is how many times tick assembles its stack; WNN training
// makes each take most of a second.
const tickSetups = 5

func runTick(b *bench) error {
	var pools [][]stepRec
	var live [][]*proto.Report
	// The pool is recorded after the first set-up, with its classifiers,
	// outside any timing.
	recordPools := func(rep int, t *tickRig) error {
		if rep > 0 {
			return nil
		}
		for i := range tickDCs {
			pool, reports, err := recordPoolSteps(b.seed, i, t.clfs[i], tickPool)
			if err != nil {
				return fmt.Errorf("record pool: %w", err)
			}
			pools = append(pools, pool)
			live = append(live, reports)
			bySource := make(map[string]int)
			for _, r := range reports {
				bySource[r.KnowledgeSourceID]++
			}
			b.info[tickDCs[i].id+"_pool_reports"] = bySource
		}
		return nil
	}
	t, err := setupRepeated(b, tickSetups, func(dir string, led *ledger, tr *tracer) (*tickRig, error) {
		return buildTick(b, dir, led, tr)
	}, recordPools)
	if err != nil {
		return err
	}
	defer t.close()
	for i, src := range t.srcs {
		src.pool = pools[i]
	}
	b.info["inputs_sha256"] = poolDigest(pools)
	b.info["params"] = map[string]any{"dcs": len(tickDCs), "pool_steps": tickPool, "step": tickStep.String(),
		"frame_len": dc.DefaultConfig("", "").FrameLen, "wnn_per_class": wnnPerClass}

	// Load: one goroutine steps the DCs in turn, each step starting when
	// the previous RunFor returns. It leaves the second core to the
	// uplinks, wire, journal and fusion — as on a ship, where DC analysis
	// does not run on the PDME's processors. It runs past the window until
	// the first pass over the pool is done, which the replay check needs.
	steps := make([][]stepSample, len(t.dcs))
	start := time.Now()
	t.startLoad(start)
	var loadErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		prevEnd := start
		for k := 0; ; k++ {
			for i, d := range t.dcs {
				src, em := t.srcs[i], t.ems[i]
				now := time.Now()
				if !now.Before(t.to) && k >= len(src.pool) {
					return
				}
				src.begin(poolIndex(k, len(src.pool)))
				em.origin = now
				samples0, sent0 := src.samples, em.seq
				if err := d.RunFor(tickStep); err != nil {
					loadErr = fmt.Errorf("%s step: %w", tickDCs[i].id, err)
					return
				}
				end := time.Now()
				steps[i] = append(steps[i], stepSample{start: now, end: end, samples: src.samples - samples0, reports: em.seq - sent0})
				t.genLate = append(t.genLate, ms(now.Sub(prevEnd)))
				prevEnd = end
			}
		}
	}()
	heapMB := t.window()
	<-done
	if loadErr != nil {
		return loadErr
	}
	if err := t.drain(); err != nil {
		return err
	}

	// The first pass over the pool must reproduce the live plant's reports.
	for i, src := range t.srcs {
		b.check(fmt.Sprintf("%s replay has no source overrun", tickDCs[i].id), src.overruns == 0, "%d overruns", src.overruns)
		want := live[i]
		got := t.ems[i].sent
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		same := reflect.DeepEqual(got[:n], want[:n])
		b.check(fmt.Sprintf("%s first replay pass reproduces the live-plant reports", tickDCs[i].id), same && len(got) >= len(want),
			"%d of %d live reports replayed, equal prefix=%v", len(got), len(want), same)
	}
	if err := t.verifyRanking(); err != nil {
		return err
	}

	var durs []float64
	var all []sample
	var starts []time.Time
	var samples int64
	var reports uint64
	for _, ss := range steps {
		for _, s := range ss {
			all = append(all, sample{s.start, ms(s.end.Sub(s.start))})
			starts = append(starts, s.start)
			if s.start.Before(t.from) || !s.start.Before(t.to) {
				continue
			}
			durs = append(durs, ms(s.end.Sub(s.start)))
			samples += s.samples
			reports += s.reports
		}
	}
	if len(durs) == 0 {
		return fmt.Errorf("no DC step started inside the measured window")
	}
	secs := b.seconds.Seconds()
	b.set("samples_per_s", float64(samples)/secs)
	b.setLatency("tick_p50_ms", "tick_p99_ms", all, t.from, t.to, nil)
	perStep, rel := t.cpuPer(starts, nil)
	b.set("cpu_us_per_op", perStep)
	b.set("op_cpu_rel", rel)
	b.info["steps_in_window"] = len(durs)
	b.set("dc.step_ms", quantile(durs, 0.5))
	b.set("dc.reports_per_step", float64(reports)/float64(len(durs)))
	t.finishCommon(heapMB)
	if t.tr == nil {
		return nil
	}
	if err := t.tr.dcProbes(b, pools[0], t.clfs[0], t.srcs[0].cfg); err != nil {
		return err
	}
	return t.tr.probes(b, t.rig)
}
