package main

import (
	"fmt"
	"os/exec"
	"syscall"
)

// fsTypes names the filesystem magics the sandboxes and CI runners in
// use report; anything else prints as its hex magic.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding path.
func fsType(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", path, err)
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// dieWithParent makes the kernel SIGKILL the child when the harness
// dies without running its cleanup (SIGKILL, OOM): a leaked ldpd would
// answer the next run's /healthz.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
