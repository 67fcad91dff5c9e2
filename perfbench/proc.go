package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/server"
)

// daemon is one prognosd process, started fresh for a run so that its CPU
// and memory readings belong to that run alone and no warm state carries
// over from another.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	copied chan struct{}
}

// startDaemon launches the prognosd binary on a free loopback port,
// restricted to cpu so that the Go runtime in it sizes GOMAXPROCS to 1,
// and returns once it answers a stats session.
func startDaemon(bin string, cpu int) (*daemon, error) {
	// A child inherits the CPU mask of the thread that forks it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	if err := setAffinity(0, cpuMask(cpu)); err != nil {
		return nil, err
	}
	defer setAffinity(0, old)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should perfbench itself be killed, take the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, copied: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if err == nil {
		const prefix = "prognosd listening on "
		if !strings.HasPrefix(line, prefix) {
			err = fmt.Errorf("unexpected first line %q", line)
		}
		d.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	}
	go func() {
		io.Copy(io.Discard, br)
		close(d.copied)
	}()
	if err == nil {
		err = d.waitReady(10 * time.Second)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("prognosd: %w", err)
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		_, err := server.FetchStats(d.addr)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGINT), kills it if it has not exited
// within a few seconds, and waits for the process to end.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() {
		<-d.copied
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("prognosd did not drain in time; killed")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stats() (metrics.ServerSnapshot, error) { return server.FetchStats(d.addr) }

// cpuNS is the CPU time (user+system, all threads) the process has used,
// in nanoseconds, from the per-thread scheduler statistics.
func cpuNS(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var sum int64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// selfCPUNS is this process's CPU time (user+system) in nanoseconds.
func selfCPUNS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's VmHWM in MB (2^20 bytes); pid 0 means this
// process.
func peakRSSMB(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	if pid == 0 {
		path = "/proc/self/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func cpuMask(cpu int) cpuSet {
	var m cpuSet
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// allowedCPUs is the lowest-numbered two CPUs this thread may run on, or
// the one if there is only one.
func allowedCPUs() ([]int, error) {
	m, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	var cpus []int
	for c := 0; c < len(m)*64 && len(cpus) < 2; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		return nil, errors.New("empty CPU affinity mask")
	}
	return cpus, nil
}

func getAffinity(tid int) (cpuSet, error) {
	var m cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

func setAffinity(tid int, m cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// pinThreads restricts every thread of process pid (0 for this one) to
// mask. Threads inherit their creator's mask, so once no thread is left
// outside mask none will be created outside it; the loop catches threads
// started while it ran.
func pinThreads(pid int, m cpuSet) error {
	dir := "/proc/self/task"
	if pid != 0 {
		dir = fmt.Sprintf("/proc/%d/task", pid)
	}
	for pinned := false; !pinned; {
		pinned = true
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if cur, err := getAffinity(tid); err == nil && cur == m {
				continue
			}
			pinned = false
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}
