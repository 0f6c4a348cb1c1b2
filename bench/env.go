package main

import (
	"os"
	"runtime"
	"strings"
)

// envInfo records the machine a result was taken on.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// PersistFS is the filesystem type under the persist and probe temp
	// dirs: fsync on tmpfs and on a disk are different operations.
	PersistFS string `json:"persist_fs"`
	// Comparable is false below two CPUs, where the two clients and the
	// server cannot run at once and every timing means something else.
	Comparable bool `json:"comparable"`
}

func machineInfo() envInfo {
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		PersistFS:  fsTypeOf(runDir),
		Comparable: runtime.NumCPU() >= 2,
	}
}

// runDir is this process's temp dir under artifactDir: the persist dirs
// of the churn workload and the probes' store files live in it, inside
// the checkout, and it is removed on every exit path.
var runDir string

func makeRunDir() error {
	dir, err := os.MkdirTemp(artifactDir, "run-*")
	if err != nil {
		return err
	}
	runDir = dir
	return nil
}

func removeRunDir() {
	if runDir != "" {
		os.RemoveAll(runDir)
	}
}
