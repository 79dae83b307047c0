package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ. It is 100 on every Linux the Go
// runtime supports without cgo, and /proc reports CPU times in it.
const clockTick = 100

// procCPU returns user+system CPU seconds consumed so far by pid.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after the
	// closing parenthesis. utime and stime are fields 14 and 15 overall.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad cpu fields", pid)
	}
	return (ut + st) / clockTick, nil
}

// procKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func procKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("proc status of %d: no %s", pid, key)
}

// peakRSSMiB is VmHWM, the process's resident-set high-water mark.
func peakRSSMiB(pid int) (float64, error) {
	kb, err := procKB(pid, "VmHWM")
	return kb / 1024, err
}

// procWriteBytes is write_bytes of /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("proc io of %d: no write_bytes", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n), err
}
