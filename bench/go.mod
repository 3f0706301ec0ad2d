// The benchmark is a module of its own so that it carries its own build
// file. Its path extends the program's, which is what lets it import
// packetshader/internal/...; the replace points at the checkout it sits in.
module packetshader/bench

go 1.22

require packetshader v0.0.0

replace packetshader => ../
