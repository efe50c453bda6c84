//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package vm

// littleEndian is false on every host not listed in endian_little.go —
// big-endian ones, and any it does not know — and move encodes word by
// word.
const littleEndian = false
