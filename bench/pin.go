//go:build linux

package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuSet is a CPU affinity mask in the kernel's layout, one bit per CPU.
type cpuSet [16]uint64

// affinity reads the CPUs the calling thread may run on.
func affinity() (cpuSet, error) {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return set, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return set, nil
}

// highest returns the set holding only the highest-numbered CPU of s.
func (s cpuSet) highest() (cpuSet, error) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			var one cpuSet
			one[i] = 1 << (bits.Len64(s[i]) - 1)
			return one, nil
		}
	}
	return s, errors.New("empty CPU affinity mask")
}

// confine restricts every thread of a process to set. A thread started
// later inherits the mask of the thread that starts it, so the walk over
// /proc/<pid>/task is repeated until it meets no thread it has not
// already confined.
func confine(pid int, set cpuSet) error {
	done := map[int]bool{}
	for {
		entries, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has ended
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
			done[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// oneCPU confines every thread of the given processes to the
// highest-numbered CPU the harness may run on (device interrupts go to
// the lowest) and returns the function that lifts the restriction.
//
// It is for the timed work that never waits: serve_hot's ping-pong,
// where the client waits while the daemon answers from its cache and the
// daemon waits while the client reads the answer and writes the next
// request, and batch_imdb's MatchAll loop. Left to the scheduler, a
// ping-pong's two sides sit on different CPUs, each of which goes idle
// between its turns, and on this virtual machine waking an idle CPU costs
// as much as the whole request (0.10 ms a round trip against 0.065 ms on
// one CPU); and whatever spans both CPUs waits for the slower whenever
// the host takes time from either. On one CPU the hand-over is a context
// switch, the CPU never idles, and what is timed is the code on the path.
func oneCPU(pids ...int) (restore func(), err error) {
	all, err := affinity()
	if err != nil {
		return nil, err
	}
	one, err := all.highest()
	if err != nil {
		return nil, err
	}
	restore = func() {
		for _, pid := range pids {
			confine(pid, all)
		}
	}
	for _, pid := range pids {
		if err := confine(pid, one); err != nil {
			restore()
			return nil, err
		}
	}
	return restore, nil
}

// cpuTimes is one reading of /proc/stat's per-CPU lines: for each CPU
// the jiffies in total and the jiffies stolen, which is time the
// hypervisor ran something else while this CPU had work.
type cpuTimes struct{ total, stolen []float64 }

// readCPUTimes reads /proc/stat; a failure gives an empty reading.
func readCPUTimes() cpuTimes {
	var t cpuTimes
	data, _ := os.ReadFile("/proc/stat")
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		sum := 0.0
		for _, field := range f[1:9] { // user nice system idle iowait irq softirq steal
			v, _ := strconv.ParseFloat(field, 64)
			sum += v
		}
		steal, _ := strconv.ParseFloat(f[8], 64)
		t.total, t.stolen = append(t.total, sum), append(t.stolen, steal)
	}
	return t
}

// stolenSince formats, per CPU, the share of the time since an earlier
// reading that the hypervisor took from it: the visible part of what
// makes one run slower than the next on a shared host.
func (t cpuTimes) stolenSince(before cpuTimes) string {
	var parts []string
	for i := range t.total {
		if i < len(before.total) && t.total[i] > before.total[i] {
			parts = append(parts, fmt.Sprintf("cpu%d %.1f%%", i, 100*(t.stolen[i]-before.stolen[i])/(t.total[i]-before.total[i])))
		}
	}
	return strings.Join(parts, ", ")
}
