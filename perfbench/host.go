package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostStamp identifies where and from what a result was measured.
// Results are comparable only when every field but Rev matches.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Rev is the git revision the binary was built from, or, where the
	// source tree is not a git checkout, "src:" and a digest of the
	// module sources.
	Rev string `json:"rev"`
}

func currentHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Rev:        sourceRev("."),
	}
}

// sameHost reports the host fields in which a and b differ.
func sameHost(a, b hostStamp) []string {
	var diff []string
	if a.NumCPU != b.NumCPU {
		diff = append(diff, fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diff = append(diff, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.CPUModel != b.CPUModel {
		diff = append(diff, fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.GoVersion != b.GoVersion {
		diff = append(diff, fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion))
	}
	return diff
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stolenSeconds returns the wall time a hypervisor has taken from this
// machine's CPUs since boot: the steal column of /proc/stat, in its
// fixed 1/100 s unit, averaged over the CPUs. It is 0 where none is
// reported.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		if steal, err = strconv.ParseFloat(f[8], 64); err != nil {
			return 0
		}
	}
	if cpus == 0 {
		return 0
	}
	return steal / 100 / float64(cpus)
}

// unstolen returns d less the stolen seconds measured around it. On a
// shared virtual machine the hypervisor takes the CPUs away in bursts
// that would otherwise decide a run's host times.
func unstolen(d time.Duration, stolen float64) time.Duration {
	s := time.Duration(stolen * float64(time.Second))
	if s <= 0 || s >= d {
		return d
	}
	return d - s
}

// sourceRev returns the VCS revision stamped into the binary, or a
// digest of the Go sources and go.mod files under root.
func sourceRev(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	// WalkDir's callback never returns an error, so neither does it.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the digest without it
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f) // a short read only changes the digest, which then mismatches
		f.Close()
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one stamped result as --out writes it.
type record struct {
	Host     hostStamp `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	Result   result    `json:"result"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints each metric of b against a, refusing records
// from different hosts or workloads.
func compareRecords(w io.Writer, a, b record) error {
	if diff := sameHost(a.Host, b.Host); len(diff) > 0 {
		return fmt.Errorf("refusing to compare results from different hosts: %s", strings.Join(diff, "; "))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %d) with %s (trace %d)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%s: %s (seed %d) vs %s (seed %d)\n", a.Workload, a.Host.Rev, a.Seed, b.Host.Rev, b.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.4f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %-8s x%s\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return nil
}
