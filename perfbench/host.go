package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/proto"
)

// fingerprint describes the host and the code under test, so a reader can
// tell a slow disk or another machine from a regression.
func fingerprint(root, journalDir string) map[string]any {
	fp := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(),
		"source_sha256": sourceDigest(root),
		"journal_fs":    filesystem(journalDir),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		fp["kernel"] = utsString(u.Release[:])
	}
	return fp
}

func utsString(cs []int8) string {
	b := make([]byte, 0, len(cs))
	for _, c := range cs {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// commit is the VCS revision stamped into the binary, or "unknown" when
// the benchmark was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the program's Go sources and go.mod (paths and
// contents, in walk order), identifying the code even without git.
func sourceDigest(root string) string {
	h := sha256.New()
	walk := func(dir string) {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return nil
			}
			if d.IsDir() {
				if path != filepath.Join(root, dir) && (dir == "." || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
			h.Write(data)
			return nil
		})
	}
	walk(".") // root files only
	walk("internal")
	walk("cmd")
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// filesystem names the filesystem holding dir, from statfs's magic number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x5346414F: "afs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibrate runs the host probes every run reports: journal.Append of a
// record the workload's mean report size (fsync cost of this disk), and a
// loopback send+ack against a no-op sink (this host's wire cost).
func (b *bench) calibrate() error {
	size := int(b.values["proto.frame_bytes"])
	if size < 64 {
		size = 64
	}
	appendUS, err := probeJournalAppend(filepath.Join(b.dir, "probe-journal"), size, 200)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	rttUS, err := probeRTT(500)
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	b.set("journal.append_us", appendUS)
	b.set("proto.rtt_us", rttUS)
	b.info["probe_journal_append_us"] = appendUS
	b.info["probe_proto_rtt_us"] = rttUS
	return nil
}

func probeJournalAppend(dir string, size, n int) (float64, error) {
	jr, _, err := journal.Open(dir)
	if err != nil {
		return 0, err
	}
	defer jr.Close()
	body := make([]byte, size)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := jr.Append(1, body); err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	return median(lat), nil
}

type nullSink struct{}

func (nullSink) Deliver(*proto.Report) error { return nil }

func probeRTT(n int) (float64, error) {
	srv := proto.NewServer(nullSink{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := proto.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	r := &proto.Report{
		DCID: "probe", KnowledgeSourceID: "ks/probe", SensedObjectID: "chiller/0",
		MachineConditionID: "motor imbalance", Severity: 0.5, Belief: 0.5,
		Timestamp: time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.Send(r); err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	return median(lat), nil
}
