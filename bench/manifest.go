package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// manifest says what a run executed; it heads every output.
type manifest struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	// OutFS is the filesystem type holding the checkpoint directory.
	// On tmpfs fsync is free, so shard_sweep's checkpointed pass is not
	// comparable with a disk-backed run's; OutFSValid says whether it is.
	OutFS      string `json:"checkpoint_fs"`
	OutFSValid bool   `json:"checkpoint_fs_valid"`
	// Runs lists each child run's workload, wall and CPU seconds.
	Runs []runCost `json:"runs,omitempty"`
}

type runCost struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced,omitempty"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
}

// workers is GOMAXPROCS and the engine pool size of every run.
func workers() int { return min(runtime.NumCPU(), 4) }

func newManifest(seed int64, outDir string) manifest {
	fs := fsType(outDir)
	return manifest{
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: workers(),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		OutFS:      fs,
		OutFSValid: fs != "tmpfs" && fs != "ramfs",
	}
}

// failOnMemoryFS fails every job of a sharded run whose checkpoint
// directory is on a memory filesystem: fsync is free there, so the
// checkpointed pass would post a durability cost that looks comparable
// with a disk-backed run's and is not.
func failOnMemoryFS(rep *runReport, m manifest) {
	if m.OutFSValid {
		return
	}
	rep.Failed = rep.Jobs * max(len(rep.Passes), 1)
	rep.Failures = append([]failure{{
		Label:  rep.Workload,
		Reason: "checkpoint directory is on " + m.OutFS + ", where fsync is free: the run is invalid (pass -out a directory on a disk)",
	}}, rep.Failures...)
}

// gitRev is the checked-out revision, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0xf2f52010:
		return "f2fs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
