package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host fingerprints the machine a result was measured on. Results from
// different hosts are not comparable, and the baseline comparison
// refuses them.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// DiskFS and DataFS describe the filesystem under the disk tier's
	// blob directory and the journal's data directory: type, mount
	// point and mount options (discard, for one, changes unlink costs).
	DiskFS string `json:"disk_fs"`
	DataFS string `json:"data_fs"`
	// Netns is "loopback-only" when the run's network namespace holds
	// no interface but lo (run.sh gives each run one of its own), and
	// "shared" when it holds others too.
	Netns string `json:"netns"`
}

func probeHost(diskDir, dataDir string) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Netns:      netns(),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	h.DiskFS = filesystemOf(diskDir)
	h.DataFS = filesystemOf(dataDir)
	return h
}

// netns classifies the run's network namespace by the interfaces
// /proc/net/dev lists after its two header lines.
func netns() string {
	raw, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return "unknown"
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		return "unknown"
	}
	for _, line := range lines[2:] {
		if name, _, _ := strings.Cut(line, ":"); strings.TrimSpace(name) != "lo" {
			return "shared"
		}
	}
	return "loopback-only"
}

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

// filesystemOf names the mount holding path, from the longest mount
// point in /proc/self/mountinfo that contains it.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent dev root mountpoint options [optional...] - fstype source super-options
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		if !ok {
			continue
		}
		pf, sf := strings.Fields(pre), strings.Fields(post)
		if len(pf) < 6 || len(sf) < 3 {
			continue
		}
		mnt := pf[4]
		if !within(abs, mnt) || len(mnt) <= bestLen {
			continue
		}
		best = fmt.Sprintf("%s on %s (%s; %s)", sf[0], mnt, pf[5], sf[2])
		bestLen = len(mnt)
	}
	return best
}

func within(path, dir string) bool {
	if dir == "/" {
		return true
	}
	return path == dir || strings.HasPrefix(path, dir+"/")
}
