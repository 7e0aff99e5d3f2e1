package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"

	"vnettracer/internal/ebpf"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// environment is printed with every result so numbers from different
// machines or settings are never compared by accident.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Transport  string `json:"transport"`
	Fsync      string `json:"fsync"`
	DataFS     string `json:"data_fs"`
	Clock      string `json:"clock"`
	Load       string `json:"load"`
	EBPFTier   string `json:"ebpf_tier"`
}

func collectEnv(dataDir, tier string) environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Transport:  "tcp over host loopback (127.0.0.1), one connection per agent, 2 agents",
		Fsync:      fmt.Sprintf("WAL fsync=interval (group commit every %v)", tracedb.DefaultFsyncEvery),
		DataFS:     filesystem(dataDir),
		Clock:      "wall-clock time of the Go code, untraced end-to-end values rescaled to the reference host by the calibration loop; not the simulated-ns overhead model of the testbed",
		Load: fmt.Sprintf("closed loop: 1 generator goroutine, %d packets per round, flush of both agents after each round, %d rounds per store epoch",
			packetsPerRound, roundsPerEpoch),
		EBPFTier: tier,
	}
}

// ebpfTier loads every trace script the benchmark installs and returns
// the tier Program.Run dispatches them to. The benchmark measures the
// optimized tier; VNT_EBPF_TIER can force another one at load time, and
// a run under such a setting is refused rather than measured.
func ebpfTier() (string, error) {
	for _, kind := range []pipeKind{kindRecords, kindAggregates} {
		for tp := range tpSites {
			prog, err := script.Compile(scriptSpec(kind, tp))
			if err != nil {
				return "", fmt.Errorf("compile %s script %s: %w", kind, tpNames[tp], err)
			}
			if t := prog.Prog.Tier(); t != ebpf.TierOptimized {
				return "", fmt.Errorf("%s script %s runs on the %v tier, not the optimized one (VNT_EBPF_TIER=%q)",
					kind, tpNames[tp], t, os.Getenv("VNT_EBPF_TIER"))
			}
		}
	}
	return ebpf.TierOptimized.String(), nil
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// filesystem names the file system holding dir from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("statfs type %#x", uint32(st.Type))
}
