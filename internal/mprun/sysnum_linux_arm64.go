package mprun

import "syscall"

const sysMemfdCreate = syscall.SYS_MEMFD_CREATE
