package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The speed probe measures how fast the host runs a fixed piece of work at
// each moment of the measured window. On a shared host the CPU time a given
// piece of work takes drifts from minute to minute with what the other
// tenants do (shared caches and cores, clock speed), and every CPU and wall
// time of the program drifts with it. The bounded figures are therefore
// divided, slice by slice, by the probe's median CPU time in the same slice:
// drift of the whole host cancels, and a change in the program does not,
// because the probe runs only the standard library on data of its own.

// speedPeriod is how often the probe runs its kernel, about 1.3 ms of CPU
// on a current x86 core: under 3% of one core.
const speedPeriod = 50 * time.Millisecond

// speedRec is shaped like a report: identifiers, a timestamp, numbers.
type speedRec struct {
	ID   string            `json:"id"`
	At   time.Time         `json:"at"`
	Vals []float64         `json:"vals"`
	Tags map[string]string `json:"tags"`
}

// speedInput is the kernel's fixed input, built once.
type speedInput struct {
	recs   []speedRec
	floats []float64
}

func newSpeedInput() *speedInput {
	rng := rand.New(rand.NewSource(1))
	in := &speedInput{recs: make([]speedRec, 40), floats: make([]float64, 4000)}
	for i := range in.recs {
		vals := make([]float64, 16)
		for k := range vals {
			vals[k] = rng.Float64()
		}
		in.recs[i] = speedRec{ID: "chiller/" + string(rune('a'+i%26)), At: time.Unix(int64(i), 0).UTC(),
			Vals: vals, Tags: map[string]string{"dc": "dc-1", "ks": "ks/probe"}}
	}
	for i := range in.floats {
		in.floats[i] = rng.Float64()
	}
	return in
}

// kernel encodes and decodes the records as JSON and sorts a copy of the
// floats: allocation, reflection, string and float formatting, branches.
func (in *speedInput) kernel() {
	data, err := json.Marshal(in.recs)
	if err != nil {
		panic(err)
	}
	var back []speedRec
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	fs := append([]float64(nil), in.floats...)
	sort.Float64s(fs)
}

type speedRun struct {
	at  time.Time
	cpu time.Duration
}

type speedProbe struct {
	stopCh chan struct{}
	done   chan struct{}
	runs   []speedRun
}

// startSpeedProbe runs the kernel every speedPeriod on its own OS thread,
// timing each run with the thread's CPU clock, until stop.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{stopCh: make(chan struct{}), done: make(chan struct{})}
	in := newSpeedInput()
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(speedPeriod)
		defer t.Stop()
		for {
			at := time.Now()
			c0 := threadCPUTime()
			in.kernel()
			p.runs = append(p.runs, speedRun{at, threadCPUTime() - c0})
			select {
			case <-p.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends the probe and returns its runs.
func (p *speedProbe) stop() []speedRun {
	close(p.stopCh)
	<-p.done
	return p.runs
}
