package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// walStore holds the write-ahead logs of one daemon-wal run. Every log
// is an anonymous in-memory file (memfd_create), opened by the daemon
// through its /proc/self/fd path: the WAL code path runs in full, fsync
// included, but the log lives in the process's memory, like a log on
// tmpfs. The benchmark may write only inside its checkout, and a log on
// the checkout's disk made the figures follow that disk's fsync latency
// rather than the daemon (cqbench/SIZING.md).
type walStore struct{ files []*os.File }

// path creates an empty log called name and returns the path to open
// it by.
func (s *walStore) path(name string) (string, error) {
	if sysMemfdCreate < 0 {
		return "", fmt.Errorf("daemon-wal: in-memory logs need memfd_create, which this build does not know for its architecture")
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return "", err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(uintptr(sysMemfdCreate), uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return "", fmt.Errorf("daemon-wal: memfd_create: %w", errno)
	}
	f := os.NewFile(fd, name)
	s.files = append(s.files, f)
	return fmt.Sprintf("/proc/self/fd/%d", fd), nil
}

// close frees every log.
func (s *walStore) close() {
	for _, f := range s.files {
		f.Close()
	}
}
