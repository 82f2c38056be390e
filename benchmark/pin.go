package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts every thread of this process — and with them
// every msserve child, which inherits the mask — to the highest-numbered
// CPU the process may run on, and returns that CPU.
//
// Harness and server share one CPU on purpose. On a small shared VM the
// closed-loop ping-pong of a streamed run (one write and one wake-up
// per tuple) is dominated by cross-CPU wake-ups, whose cost moves by a
// factor of two from minute to minute with the host's placement of the
// virtual CPUs; on one CPU the same run is both faster and repeats
// within a few percent. README.md has the measurements.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// New threads inherit the mask of the thread that creates them, so a
	// second pass catches any thread an unpinned one started meanwhile.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited between the listing and the call.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
	}
	return cpu, nil
}
