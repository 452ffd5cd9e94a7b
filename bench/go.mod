module decentmon/bench

go 1.24

require decentmon v0.0.0

replace decentmon => ../
