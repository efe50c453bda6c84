//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package vm

// littleEndian reports that this host stores a word in memory in the
// byte order a page holds it in, so move can copy a run of words as bytes.
const littleEndian = true
