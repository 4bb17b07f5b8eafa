package main

import (
	"fmt"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/dsp"
	"repro/internal/fuzzy"
	"repro/internal/historian"
	"repro/internal/relstore"
	"repro/internal/sbfr"
	"repro/internal/vibration"
	"repro/internal/wavelet"
	"repro/internal/wnn"
)

// timeEach runs fn n times and returns the median call time in µs.
func timeEach(n int, fn func(i int) error) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	return median(lat), nil
}

// timeBatch times batches of k calls and returns the median per-call µs,
// for calls too short to time one by one.
func timeBatch(n, k int, fn func(i int) error) (float64, error) {
	v, err := timeEach(n, func(i int) error {
		for j := 0; j < k; j++ {
			if err := fn(i*k + j); err != nil {
				return err
			}
		}
		return nil
	})
	return v / float64(k), err
}

// dcProbes times the DC's analysis layers — the stages inside RunFor that
// have no seam — by calling each layer's public function on recorded pool
// inputs, and derives how much of a DC step those stages leave
// unexplained. tick passes its own pool; the other workloads record a
// small one from the same seed.
func (t *tracer) dcProbes(b *bench, pool []stepRec, clf *wnn.ChillerClassifier, cfg chiller.Config) error {
	var frames [][]float64
	var points []chiller.MeasurementPoint
	var states []chiller.ProcessState
	var loads []float64
	for _, st := range pool {
		frames = append(frames, st.frames...)
		points = append(points, st.points...)
		states = append(states, st.states...)
		loads = append(loads, st.loads...)
	}
	if len(frames) > 16 {
		frames, points = frames[:16], points[:16]
	}
	nf := len(frames)
	def := dc.DefaultConfig("", "")
	at := def.Start
	feats := make(map[chiller.MeasurementPoint]*vibration.Features)
	eng := vibration.NewEngine(cfg, def.CallThreshold)
	ctx := &vibration.Context{Load: loads[0], Process: states[0]}
	guard := dc.NewChannelGuard(dc.GuardConfig{})
	fc := wnn.DefaultFeatureConfig()
	fz, err := fuzzy.NewChillerDiagnostics()
	if err != nil {
		return err
	}
	sys, err := sbfr.NewSystemFromSource(dc.ProcessMonitorSource, dc.ProcessMonitorChannels)
	if err != nil {
		return err
	}
	in := make([]float64, 2)
	db := relstore.NewMemory()
	defer db.Close()
	if err := db.EnsureTable(relstore.Schema{Name: "probe", Columns: []relstore.Column{
		{Name: "point", Type: relstore.String, Indexed: true},
		{Name: "rms", Type: relstore.Float},
		{Name: "taken_at", Type: relstore.Time},
	}}); err != nil {
		return err
	}
	hist, err := historian.Open(historian.Options{})
	if err != nil {
		return err
	}
	defer hist.Close()
	if err := hist.EnsureChannel(historian.ChannelConfig{Name: "probe", Tiers: []time.Duration{24 * time.Hour}}); err != nil {
		return err
	}
	// In order: diagnose uses the features extract leaves behind.
	stages := []struct {
		name string
		run  func() (float64, error)
	}{
		{"dsp.analyze_us", func() (float64, error) {
			return timeEach(nf, func(i int) error { _, err := dsp.AnalyzeFrame(frames[i], cfg.SampleRate, dsp.Hann); return err })
		}},
		{"vibration.extract_us", func() (float64, error) {
			return timeEach(nf, func(i int) error {
				f, err := vibration.Extract(frames[i], cfg, points[i])
				feats[points[i]] = f
				return err
			})
		}},
		{"vibration.diagnose_us", func() (float64, error) {
			return timeEach(20, func(int) error { _, err := eng.Diagnose(feats, ctx); return err })
		}},
		{"dc.guard_us", func() (float64, error) {
			return timeEach(nf, func(i int) error { guard.InspectFrame("vib/"+points[i].String(), frames[i]); return nil })
		}},
		{"wavelet.decompose_us", func() (float64, error) {
			return timeEach(nf, func(i int) error { _, err := wavelet.Decompose(fc.Kind, frames[i], fc.WaveletLevels); return err })
		}},
		{"wnn.classify_us", func() (float64, error) {
			return timeEach(nf, func(i int) error { _, err := clf.Classify(frames[i], points[i]); return err })
		}},
		{"fuzzy.diagnose_us", func() (float64, error) {
			return timeEach(len(states), func(i int) error { _, err := fz.Diagnose(states[i], def.CallThreshold); return err })
		}},
		{"sbfr.cycle_us", func() (float64, error) {
			return timeBatch(20, 100, func(i int) error {
				s := states[i%len(states)]
				in[0], in[1] = s.OilPressurePSI, s.EvapPressurePSI
				return sys.Cycle(in)
			})
		}},
		{"relstore.insert_us", func() (float64, error) {
			return timeEach(200, func(i int) error {
				_, err := db.Insert("probe", relstore.Row{"point": points[i%nf].String(), "rms": float64(i), "taken_at": at.Add(time.Duration(i) * time.Minute)})
				return err
			})
		}},
		{"historian.append_us", func() (float64, error) {
			return timeBatch(50, 10, func(i int) error { return hist.Append("probe", at.Add(time.Duration(i)*time.Minute), float64(i)) })
		}},
	}
	for _, s := range stages {
		if err := set2(b, s.name, s.run); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
	}

	// A probe DC over the same pool: the scan tasks through the DC's own
	// public entry points, and (on workloads without DCs) a whole step.
	src := &replay{cfg: cfg, pool: pool}
	pd, err := dc.New(tickDCConfig("dc-probe", "chiller/99", nil), src, relstore.NewMemory(), nullSink{})
	if err != nil {
		return err
	}
	defer pd.Close()
	if err := pd.AttachWNN(clf); err != nil {
		return err
	}
	if _, ok := b.values["dc.step_ms"]; !ok {
		var steps []float64
		var reports int
		for k := range pool {
			src.begin(k)
			before := pd.ReportsSent()
			t0 := time.Now()
			if err := pd.RunFor(tickStep); err != nil {
				return err
			}
			if k > 0 {
				steps = append(steps, ms(time.Since(t0)))
				reports += pd.ReportsSent() - before
			}
		}
		b.set("dc.step_ms", median(steps))
		b.set("dc.reports_per_step", float64(reports)/float64(len(steps)))
	}
	// The scans replay the last step's process states, wrapping around.
	now := at
	src.begin(len(pool) - 1)
	scan := func(name string, n int, every time.Duration, run func(time.Time) error) error {
		return set2(b, name, func() (float64, error) {
			return timeEach(n, func(int) error {
				if src.si >= len(src.cur.states) {
					src.si = 0
				}
				now = now.Add(every)
				return run(now)
			})
		})
	}
	if err := scan("dc.proc_scan_us", 40, def.ProcessInterval, pd.RunProcessScan); err != nil {
		return err
	}
	if err := scan("dc.sbfr_scan_us", 100, def.SBFRInterval, pd.RunSBFRScan); err != nil {
		return err
	}

	// What a steady step runs, from dc.DefaultConfig's cadences: one
	// vibration test over every point (guard, features, WNN, a measurement
	// row, three historian features each, then the rulebook), a process
	// scan every 30 min and an SBFR scan every 5 min, and an emit per
	// report.
	v := b.values
	perPoint := v["dc.guard_us"] + v["vibration.extract_us"] + v["wnn.classify_us"] + v["relstore.insert_us"] + 3*v["historian.append_us"]
	scans := float64(tickStep / def.ProcessInterval)
	sbfrScans := float64(tickStep / def.SBFRInterval)
	attributed := float64(chiller.NumPoints)*perPoint + v["vibration.diagnose_us"] +
		scans*v["dc.proc_scan_us"] + sbfrScans*v["dc.sbfr_scan_us"] + v["dc.reports_per_step"]*v["dc.emit_us"]
	b.set("dc.unattributed_share", 1-attributed/(v["dc.step_ms"]*1000))
	b.info["dc_attributed_us_per_step"] = attributed
	return nil
}

func set2(b *bench, name string, fn func() (float64, error)) error {
	v, err := fn()
	if err == nil {
		b.set(name, v)
	}
	return err
}

// smallPool records a short pool for the DC probes of workloads that run
// no DC analysis: one WNN and five steps of the first tick DC.
func smallPool(seed int64) ([]stepRec, *wnn.ChillerClassifier, chiller.Config, error) {
	clfs, err := trainClassifiers(1)
	if err != nil {
		return nil, nil, chiller.Config{}, err
	}
	pool, _, err := recordPoolSteps(seed, 0, clfs[0], 5)
	cfg := chiller.DefaultConfig()
	cfg.Seed = seed*10 + 1
	return pool, clfs[0], cfg, err
}
