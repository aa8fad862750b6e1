package mprun

// sysMemfdCreate is memfd_create(2)'s number: Go's frozen syscall package
// names it on arm64 and the other newer ports, but not here.
const sysMemfdCreate = 319
