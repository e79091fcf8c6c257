package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// windows is the number of slices a measured phase is cut into.
const windows = 20

// marks are readings taken at the boundaries of a phase's windows: the
// time, the process CPU time and the host's CPU steal.
type marks struct {
	at    []int64 // unix ns
	cpu   []time.Duration
	steal []int64 // clock ticks; nil when the host does not report steal
}

// take appends the readings for the next boundary.
func (m *marks) take() {
	m.at = append(m.at, time.Now().UnixNano())
	m.cpu = append(m.cpu, cpuTime())
	if v, ok := hostSteal(); ok && (m.steal != nil || len(m.at) == 1) {
		m.steal = append(m.steal, v)
	} else {
		m.steal = nil
	}
}

// windowOf returns the window an event ending at end falls in; events
// past the last boundary (the in-flight tail) count in the last window.
func (m marks) windowOf(end int64) int {
	i := sort.Search(len(m.at), func(i int) bool { return m.at[i] > end }) - 1
	return min(max(i, 0), len(m.at)-2)
}

// quietest selects the half of the windows during which the host stole
// the least CPU from this machine, earlier windows first among equals.
// On a shared host a neighbour's burst slows whole stretches of a run by
// a quarter or more; the figures then come from the undisturbed
// stretches. Without steal readings every window is selected.
func (m marks) quietest() []bool {
	n := len(m.at) - 1
	sel := make([]bool, n)
	if len(m.steal) != len(m.at) {
		for i := range sel {
			sel[i] = true
		}
		return sel
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	stolen := func(i int) int64 { return m.steal[i+1] - m.steal[i] }
	sort.SliceStable(idx, func(a, b int) bool { return stolen(idx[a]) < stolen(idx[b]) })
	for _, i := range idx[:max(n/2, 1)] {
		sel[i] = true
	}
	return sel
}

// pooled is the reads of the selected windows taken together.
type pooled struct {
	lat    []int64 // sorted
	failed int64
	cpu    time.Duration
	dur    time.Duration
}

func poolReads(st *readStats, m marks, sel []bool) pooled {
	var p pooled
	for k, end := range st.ends {
		if sel[m.windowOf(end)] {
			p.lat = append(p.lat, st.lat[k])
		}
	}
	for _, end := range st.failEnds {
		if sel[m.windowOf(end)] {
			p.failed++
		}
	}
	for i, ok := range sel {
		if ok {
			p.cpu += m.cpu[i+1] - m.cpu[i]
			p.dur += time.Duration(m.at[i+1] - m.at[i])
		}
	}
	sort.Slice(p.lat, func(a, b int) bool { return p.lat[a] < p.lat[b] })
	return p
}

// hostSteal is the machine's cumulative CPU steal from /proc/stat, in
// clock ticks: time its virtual CPUs were ready to run while the
// hypervisor ran something else.
func hostSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
