package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/proto"
	"repro/internal/vibration"
)

// Fixed parameters of the ingest workload (see provenance.json).
const (
	ingestMachines = 100 // machines each DC reports on (§6.3: a DC monitors many)
	// ingestWindow is how many reports each feeder keeps outstanding in
	// its uplink — deep enough that the spool never runs dry, far below
	// uplink.DefaultSpoolCap.
	ingestWindow = 64
	// ingestTemplates recorded reports per DC are replayed in order; the
	// k-th send is template k mod ingestTemplates at virtual time
	// start + k·ingestTick.
	ingestTemplates = 4096
	ingestTick      = 100 * time.Millisecond
)

var ingestDCIDs = []string{"dc-1", "dc-2"}

// syntheticReport draws one report a DC could have produced for machine:
// vibration conditions from the DLI or WNN source, process conditions from
// the fuzzy or SBFR source, with the sources' prognostic shapes.
func syntheticReport(rng *rand.Rand, dcid, machine string) proto.Report {
	faults := chiller.AllFaults()
	f := faults[rng.Intn(len(faults))]
	sev := 0.15 + 0.8*rng.Float64()
	r := proto.Report{
		DCID:               dcid,
		SensedObjectID:     machine,
		MachineConditionID: f.String(),
		Severity:           sev,
		Belief:             0.3 + 0.6*rng.Float64(),
	}
	switch {
	case f.IsVibrational() && rng.Intn(4) > 0:
		r.KnowledgeSourceID = "ks/dli"
		r.Prognostics = vibration.WorstCasePrognostic(proto.GradeSeverity(sev), sev)
	case f.IsVibrational():
		r.KnowledgeSourceID = "ks/wnn"
		r.Prognostics = vibration.WorstCasePrognostic(proto.GradeSeverity(sev), sev)
	case rng.Intn(2) == 0:
		r.KnowledgeSourceID = "ks/fuzzy"
	default:
		r.KnowledgeSourceID = "ks/sbfr"
		r.Prognostics = proto.PrognosticVector{{Probability: 0.4, HorizonSeconds: 60 * 86400}}
	}
	r.Explanation = fmt.Sprintf("%s called %s at severity %.2f", r.KnowledgeSourceID, r.MachineConditionID, sev)
	return r
}

// ingestInputs synthesizes each DC's recorded reports from the seed.
func ingestInputs(seed int64) [][]proto.Report {
	out := make([][]proto.Report, len(ingestDCIDs))
	for i, id := range ingestDCIDs {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		out[i] = make([]proto.Report, ingestTemplates)
		for k := range out[i] {
			machine := fmt.Sprintf("chiller/%d", 1000*(i+1)+rng.Intn(ingestMachines))
			out[i][k] = syntheticReport(rng, id, machine)
		}
	}
	return out
}

// reportsDigest hashes generated reports.
func reportsDigest(sets ...[]proto.Report) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, set := range sets {
		for i := range set {
			_ = enc.Encode(&set[i]) // hashing only; a sha256 writer never fails
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ingestSetups is how many times ingest restarts its stack over the
// primed journal for setup_s.
const ingestSetups = 10

func runIngest(b *bench) error {
	inputs := ingestInputs(b.seed)
	b.info["inputs_sha256"] = reportsDigest(inputs...)
	b.info["params"] = map[string]any{"dcs": len(ingestDCIDs), "machines_per_dc": ingestMachines,
		"window": ingestWindow, "templates_per_dc": ingestTemplates, "virtual_tick": ingestTick.String()}
	// One pass over the templates, journaled before the run, creates every
	// (machine, condition) conclusion; each set-up recovers it, so the
	// window measures steady-state updates.
	base := dc.DefaultConfig("", "").Start
	var history []proto.Report
	for i := range inputs {
		for k, rep := range inputs[i] {
			rep.Timestamp = base.Add(time.Duration(k) * ingestTick)
			history = append(history, rep)
		}
	}
	if err := b.preloadSetups(ingestSetups, history); err != nil {
		return err
	}
	r, err := setupRepeated(b, ingestSetups, func(dir string, led *ledger, tr *tracer) (*rig, error) {
		r := &rig{b: b, led: led, tr: tr}
		var err error
		if r.st, err = openStation(stationConfig{journalDir: filepath.Join(dir, "journal"), led: led, tr: tr}); err != nil {
			return r, err
		}
		return r, r.openUplinks(ingestDCIDs, filepath.Join(dir, "spool"))
	}, nil)
	if err != nil {
		return err
	}
	defer r.close()
	r.setPreload(history)

	// Each feeder refills its window as the watcher sees its reports fused.
	n := len(ingestDCIDs)
	fused := make([]atomic.Int64, n)
	room := make([]chan struct{}, n)
	for i := range room {
		room[i] = make(chan struct{}, 1)
	}
	dcOf := make(map[string]int)
	for i, set := range inputs {
		for _, rep := range set {
			dcOf[rep.SensedObjectID] = i
		}
	}
	r.led.mu.Lock()
	r.led.onNotice = func(component string) {
		i := dcOf[component]
		fused[i].Add(1)
		select {
		case room[i] <- struct{}{}:
		default:
		}
	}
	r.led.mu.Unlock()

	r.startLoad(time.Now())
	stop := make(chan struct{})
	timer := time.AfterFunc(time.Until(r.to), func() { close(stop) })
	defer timer.Stop()
	lates := make([][]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			em := r.ems[i]
			woke := time.Now()
			// The live feed continues the templates after the journaled pass.
			for k := len(inputs[i]); ; k++ {
				for int64(em.seq)-fused[i].Load() >= ingestWindow {
					select {
					case <-room[i]:
						woke = time.Now()
					case <-stop:
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				rep := inputs[i][k%len(inputs[i])]
				rep.Timestamp = base.Add(time.Duration(k) * ingestTick)
				lates[i] = append(lates[i], ms(time.Since(woke)))
				if err := em.Deliver(&rep); err != nil {
					return
				}
				woke = time.Now()
			}
		}(i)
	}
	heapMB := r.window()
	wg.Wait()
	r.genLate = lates[0]
	if err := r.drain(); err != nil {
		return err
	}
	if err := r.verifyRanking(); err != nil {
		return err
	}
	r.finishCommon(heapMB)
	// The feeders' operation is the report itself.
	b.set("cpu_us_per_op", b.values["cpu_us_per_report"])
	b.set("op_cpu_rel", b.values["report_cpu_rel"])
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
