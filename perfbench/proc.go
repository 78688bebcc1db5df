package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is the whole process's resource counters at one instant.
// Differences between two samples bracket a measured phase.
type procSample struct {
	at         time.Time
	user, sys  time.Duration
	maxRSSKB   int64
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	// syscalls is syscr+syscw from /proc/self/io: read-like plus
	// write-like system calls.
	syscalls int64
	// tcpActiveOpens is Tcp: ActiveOpens from /proc/net/snmp, the
	// namespace's outbound connection count.
	tcpActiveOpens int64
	// stealTicks is the machine's steal time from /proc/stat, in clock
	// ticks: time a virtual CPU was ready but the hypervisor ran
	// something else. It explains runs that are slow for no reason of
	// their own.
	stealTicks int64
}

func sampleProc() (procSample, error) {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.user = time.Duration(ru.Utime.Nano())
	s.sys = time.Duration(ru.Stime.Nano())
	s.maxRSSKB = ru.Maxrss
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	io, err := procFields("/proc/self/io", ":")
	if err != nil {
		return s, err
	}
	s.syscalls = io["syscr"] + io["syscw"]
	s.tcpActiveOpens, err = tcpActiveOpens()
	if err != nil {
		return s, err
	}
	s.stealTicks = stealTicks()
	s.at = time.Now()
	return s, nil
}

// procDelta is what a phase cost the process.
type procDelta struct {
	wall, user, sys time.Duration
	mallocs         uint64
	allocBytes      uint64
	gcs             uint32
	syscalls        int64
	tcpOpens        int64
	stealTicks      int64
}

func (s procSample) to(e procSample) procDelta {
	return procDelta{
		wall: e.at.Sub(s.at), user: e.user - s.user, sys: e.sys - s.sys,
		mallocs: e.mallocs - s.mallocs, allocBytes: e.allocBytes - s.allocBytes,
		gcs: e.numGC - s.numGC, syscalls: e.syscalls - s.syscalls,
		tcpOpens: e.tcpActiveOpens - s.tcpActiveOpens, stealTicks: e.stealTicks - s.stealTicks,
	}
}

// plus is d and e together, as if one phase.
func (d procDelta) plus(e procDelta) procDelta {
	return procDelta{
		wall: d.wall + e.wall, user: d.user + e.user, sys: d.sys + e.sys,
		mallocs: d.mallocs + e.mallocs, allocBytes: d.allocBytes + e.allocBytes,
		gcs: d.gcs + e.gcs, syscalls: d.syscalls + e.syscalls,
		tcpOpens: d.tcpOpens + e.tcpOpens, stealTicks: d.stealTicks + e.stealTicks,
	}
}

// stealShare is the share of the machine's CPU time the hypervisor
// took over the phase, assuming 100 ticks a second.
func (d procDelta) stealShare() float64 {
	avail := d.wall.Seconds() * 100 * float64(runtime.NumCPU())
	if avail <= 0 {
		return 0
	}
	return float64(d.stealTicks) / avail
}

// cpu is user plus system time.
func (d procDelta) cpu() time.Duration { return d.user + d.sys }

// processMetrics are the process.* per-layer figures for n requests.
func (d procDelta) processMetrics(n int64, put func(name, unit string, r ratio)) {
	put("process.allocs_per_req", "1/req", ratio{float64(d.mallocs), float64(n)})
	put("process.alloc_bytes_per_req", "B/req", ratio{float64(d.allocBytes), float64(n)})
	put("process.syscalls_per_req", "1/req", ratio{float64(d.syscalls), float64(n)})
	put("process.gc_per_kreq", "1/kreq", ratio{float64(d.gcs), float64(n) / 1000})
	put("process.sys_cpu_share", "ratio", ratio{float64(d.sys), float64(d.cpu())})
}

// procFields parses "key<sep> value" lines into integers.
func procFields(path, sep string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), sep)
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out, sc.Err()
}

// tcpActiveOpens reads the Tcp ActiveOpens counter: /proc/net/snmp
// carries a header line and a value line per protocol.
func tcpActiveOpens() (int64, error) {
	raw, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var header []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "Tcp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "ActiveOpens" && i < len(fields) {
				return strconv.ParseInt(fields[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/net/snmp: no Tcp ActiveOpens")
}

// stealTicks reads the steal column of the aggregate cpu line of
// /proc/stat, or 0 where there is none.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
