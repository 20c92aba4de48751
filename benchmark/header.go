package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// header names the configuration and host a result came from.
type header struct {
	GitSHA     string         `json:"git_sha"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Rounds     map[string]int `json:"rounds"`
	CacheDir   string         `json:"cache_dir"`
	CacheFS    string         `json:"cache_dir_fs"`
}

func newHeader(c config) header {
	h := header{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       c.seed,
		Seconds:    c.seconds,
		Rounds:     make(map[string]int),
		CacheDir:   c.cacheDir,
		CacheFS:    fsType(c.cacheDir),
	}
	// The driver's checkout is not a git repository; there the sha stays
	// unknown, and git must not go looking for one above it.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(out))
		}
	}
	for _, name := range workloadOrder {
		h.Rounds[name] = c.rounds(name)
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem that will hold path (its nearest existing
// ancestor's): startup's ops fsync, so a result only compares with one
// taken on the same kind.
func fsType(path string) string {
	path, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	for syscall.Statfs(path, &st) != nil {
		if path == filepath.Dir(path) {
			return "unknown"
		}
		path = filepath.Dir(path)
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
