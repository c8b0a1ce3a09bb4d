package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark runs in a virtual machine on a shared host. Whenever the
// stack waits — for the origin's millisecond on churn_*, for a reply handed
// over on any workload — its virtual CPU halts, and how long the host takes to
// run it again depends on the host's other tenants. On churn_piggy that put
// the median hit at 18–34 µs and the CPU per request at 40–75 µs within one
// run of unchanged code, in phases of ten to thirty seconds. So for the length
// of a run every CPU is kept awake by a process of the kernel's idle
// scheduling class that spins: it runs only while nothing else wants the CPU,
// and any wake-up pre-empts it at once. With it the same run reads
// 16.0–17.5 µs and 28–37 µs. What is no longer measured is the cost of waking
// a halted virtual CPU, which is the hypervisor's and not the program's.

const schedIdle = 5 // SCHED_IDLE in linux/sched.h

// keepAwake starts one spinner per CPU this process may run on and returns
// the function that stops them and waits for them. When the kernel refuses the
// scheduling class or the pinning, it says so on standard error and the run
// goes on without spinners, noisier.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: the CPUs are not kept awake: %v\n", err)
		return func() {}
	}
	var spinners []*exec.Cmd
	stop = func() {
		for _, c := range spinners {
			c.Process.Kill()
			c.Wait()
		}
	}
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the CPUs are not kept awake: cannot read the affinity mask")
	}
	for _, cpu := range cpus {
		c := exec.Command(self, "-spin", strconv.Itoa(cpu))
		c.Stderr = os.Stderr
		ready, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err == nil {
			spinners = append(spinners, c)
			// The spinner writes one byte once it is pinned and demoted.
			_, err = io.ReadFull(ready, make([]byte, 1))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: the CPUs are not kept awake: spinner for CPU %d: %v\n", cpu, err)
			stop()
			return func() {}
		}
	}
	return stop
}

// allowedCPUs lists the CPUs in this process's affinity mask.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// spin is the spinner process: pinned to one CPU, in the idle scheduling
// class, busy until it is killed or its parent is gone. It exits rather than
// spin at normal priority, where it would compete with the benchmark.
func spin(cpu int) {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		fatal(3, "sched_setaffinity: %v", errno)
	}
	var priority int32 // struct sched_param; 0 is the only value the class takes
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		fatal(3, "sched_setscheduler(SCHED_IDLE): %v", errno)
	}
	parent := os.Getppid()
	os.Stdout.Write([]byte{1})
	for os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ { // a few milliseconds between looks at the parent
			spinSink++
		}
	}
}

// spinSink keeps the compiler from removing the spin loop.
var spinSink uint64
