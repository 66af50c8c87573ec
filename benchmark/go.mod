module dcsledger/benchmark

go 1.22

require dcsledger v0.0.0

replace dcsledger => ../
