module hierctl

go 1.22
