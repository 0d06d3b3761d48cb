module reach

go 1.22
